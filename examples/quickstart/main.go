// Quickstart: define a service in SIDL, host it on a COSM node, and
// drive it with the generic client — no stubs, no compiled interface
// knowledge on the client side.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// The service is defined entirely by its SIDL text: types, operations,
// documentation.
const greeterIDL = `
// Greets callers in several languages.
module Greeter {
    enum Language_t { ENGLISH, GERMAN, FRENCH };
    struct Greeting_t {
        string text;
        Language_t language;
    };
    interface COSM_Operations {
        // Produce a greeting for the given name.
        Greeting_t Greet(in string name, in Language_t language);
        // Count greetings made so far.
        long long Count();
    };
    module COSM_UI {
        doc Greet "Say hello to someone";
        doc Greet.name "Who should be greeted?";
    };
};
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Server side: parse the SID, implement the operations, host.
	sid, err := sidl.Parse(greeterIDL)
	if err != nil {
		return err
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return err
	}
	var greetings int64
	svc.MustHandle("Greet", func(call *cosm.Call) error {
		// The enum argument binds to its literal.
		var name, lang string
		if err := call.Args(&name, &lang); err != nil {
			return err
		}
		greetings++
		hello := map[string]string{"ENGLISH": "Hello", "GERMAN": "Moin", "FRENCH": "Bonjour"}[lang]
		return call.Return(struct{ Text, Language string }{fmt.Sprintf("%s, %s!", hello, name), lang})
	})
	svc.MustHandle("Count", func(call *cosm.Call) error {
		call.Result = xcode.NewInt(sidl.Basic(sidl.Int64), greetings)
		return nil
	})

	node := cosm.NewNode()
	if err := node.Host("Greeter", svc); err != nil {
		return err
	}
	endpoint, err := node.ListenAndServe("tcp:127.0.0.1:0")
	if err != nil {
		return err
	}
	defer node.Close()
	greeterRef := node.MustRefFor("Greeter")
	fmt.Println("== Greeter serving at", greeterRef, "on", endpoint)

	// --- Client side: a generic client that knows NOTHING about the
	// Greeter at compile time. It fetches the SID, generates the UI,
	// and invokes dynamically.
	ctx := context.Background()
	gc := genclient.New(wire.NewPool())
	binding, err := gc.Bind(ctx, greeterRef)
	if err != nil {
		return err
	}

	fmt.Println("\n== SID transferred from the service itself:")
	fmt.Println(indent(binding.SID().IDL()))

	fmt.Println("== Generated user interface (Fig. 7):")
	fmt.Println(indent(binding.RenderUI()))

	fmt.Println("== Dynamic invocations through the generated form:")
	for _, in := range []map[string]string{
		{"Greet.name": "World", "Greet.language": "ENGLISH"},
		{"Greet.name": "Hamburg", "Greet.language": "GERMAN"},
	} {
		res, err := binding.InvokeForm(ctx, "Greet", in)
		if err != nil {
			return err
		}
		text, _ := res.Value.Field("text")
		fmt.Printf("   Greet(%v) -> %s\n", in, text.Str)
	}
	res, err := binding.Invoke(ctx, "Count")
	if err != nil {
		return err
	}
	fmt.Printf("   Count() -> %d greetings\n", res.Value.Int)
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "   " + l
	}
	return strings.Join(lines, "\n")
}
