// Value-adding services, the section 2.3 scenario: "if there is a
// demand for a graphics image server in format X, but a suitable image
// server only supplies format Y, it may be profitable to provide a
// value-adding service by converting Y to X."
//
// An image archive serves images in format Y. A converter provider
// discovers it through the browser — with a generic binding, paying no
// client adaptation cost — and registers a new innovative service that
// serves format X by converting on the fly. Its SID extends the
// archive's interface shape, and clients reach the original archive
// through a first-class service reference in the converter's SID-
// described API (a binding cascade, Fig. 4).
//
//	go run ./examples/valueadding
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"cosm/internal/browser"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

const archiveIDL = `
// Archive of raster images, served in format Y.
module ImageArchiveY {
    struct Image_t {
        string name;
        string format;
        string data;
    };
    typedef sequence<string> Names_t;
    interface COSM_Operations {
        // List the archived image names.
        Names_t ListImages();
        // Fetch an image in format Y.
        Image_t GetImage(in string name);
    };
};
`

const converterIDL = `
// Value-adding converter: serves the Y-archive's images in format X.
module ImageServiceX {
    struct Image_t {
        string name;
        string format;
        string data;
    };
    typedef sequence<string> Names_t;
    interface COSM_Operations {
        // List the images available for conversion.
        Names_t ListImages();
        // Fetch an image converted to format X.
        Image_t GetImageX(in string name);
        // The underlying Y-format archive, for clients that want the
        // original (a first-class service reference: bind to it!).
        Object Upstream();
    };
};
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// --- Browser infrastructure.
	infra := cosm.NewNode()
	browserSvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
		return err
	}
	if err := infra.Host(browser.ServiceName, browserSvc); err != nil {
		return err
	}
	if _, err := infra.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		return err
	}
	defer infra.Close()
	browserRef := infra.MustRefFor(browser.ServiceName)
	bc, err := browser.DialBrowser(ctx, infra.Pool(), browserRef)
	if err != nil {
		return err
	}

	// --- The pre-existing Y-format archive.
	archiveSID, err := sidl.Parse(archiveIDL)
	if err != nil {
		return err
	}
	archiveNode := cosm.NewNode()
	archiveSvc, err := cosm.NewService(archiveSID)
	if err != nil {
		return err
	}
	images := map[string]string{
		"alster":     "Y((alster-panorama))",
		"speicher":   "Y((speicherstadt))",
		"landungsbr": "Y((landungsbruecken))",
	}
	strT := sidl.Basic(sidl.String)
	imageT := archiveSID.Type("Image_t")
	namesT := archiveSID.Type("Names_t")
	archiveSvc.MustHandle("ListImages", func(call *cosm.Call) error {
		elems := make([]*xcode.Value, 0, len(images))
		for _, n := range sortedNames(images) {
			elems = append(elems, xcode.NewString(strT, n))
		}
		seq, err := xcode.NewSequence(namesT, elems...)
		if err != nil {
			return err
		}
		call.Result = seq
		return nil
	})
	archiveSvc.MustHandle("GetImage", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		data, ok := images[name]
		if !ok {
			return fmt.Errorf("no such image %q", name)
		}
		out, err := xcode.NewStruct(imageT, map[string]*xcode.Value{
			"name":   xcode.NewString(strT, name),
			"format": xcode.NewString(strT, "Y"),
			"data":   xcode.NewString(strT, data),
		})
		if err != nil {
			return err
		}
		call.Result = out
		return nil
	})
	if err := archiveNode.Host("ImageArchiveY", archiveSvc); err != nil {
		return err
	}
	if _, err := archiveNode.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		return err
	}
	defer archiveNode.Close()
	archiveRef := archiveNode.MustRefFor("ImageArchiveY")
	if err := bc.RegisterSID(ctx, archiveSID, archiveRef); err != nil {
		return err
	}
	fmt.Println("== Y-format archive registered:", archiveRef)

	// --- The value-adding converter. It is a *client* of the archive
	// (generic binding: zero adaptation code) and a *server* to the
	// market (new innovative service, registered immediately — no
	// standardisation needed).
	converterSID, err := sidl.Parse(converterIDL)
	if err != nil {
		return err
	}
	converterNode := cosm.NewNode()
	upstreamGC := genclient.New(converterNode.Pool())
	upstream, err := upstreamGC.BrowseAndBind(ctx, browserRef, "archive")
	if err != nil {
		return err
	}
	fmt.Println("== converter discovered its upstream via the browser:", upstream.Ref())

	converterSvc, err := cosm.NewService(converterSID)
	if err != nil {
		return err
	}
	convImageT := converterSID.Type("Image_t")
	convNamesT := converterSID.Type("Names_t")
	refT := sidl.Basic(sidl.SvcRef)
	converterSvc.MustHandle("ListImages", func(call *cosm.Call) error {
		res, err := upstream.Invoke(ctx, "ListImages")
		if err != nil {
			return err
		}
		// The upstream's sequence value conforms structurally; re-type
		// it for our own result.
		projected, err := res.Value.Project(convNamesT)
		if err != nil {
			return err
		}
		call.Result = projected
		return nil
	})
	converterSvc.MustHandle("GetImageX", func(call *cosm.Call) error {
		var text string
		if err := call.Args(&text); err != nil {
			return err
		}
		name := xcode.NewString(strT, text)
		res, err := upstream.Invoke(ctx, "GetImage", name)
		if err != nil {
			return err
		}
		data, err := res.Value.Field("data")
		if err != nil {
			return err
		}
		converted := "X[" + strings.TrimPrefix(data.Str, "Y") + "]"
		out, err := xcode.NewStruct(convImageT, map[string]*xcode.Value{
			"name":   name,
			"format": xcode.NewString(strT, "X"),
			"data":   xcode.NewString(strT, converted),
		})
		if err != nil {
			return err
		}
		call.Result = out
		return nil
	})
	converterSvc.MustHandle("Upstream", func(call *cosm.Call) error {
		call.Result = xcode.NewRef(refT, archiveRef)
		return nil
	})
	if err := converterNode.Host("ImageServiceX", converterSvc); err != nil {
		return err
	}
	if _, err := converterNode.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		return err
	}
	defer converterNode.Close()
	converterRef := converterNode.MustRefFor("ImageServiceX")
	if err := bc.RegisterSID(ctx, converterSID, converterRef); err != nil {
		return err
	}
	fmt.Println("== value-adding X-converter registered:", converterRef)

	// --- An end client that wants format X. It finds the converter by
	// keyword and drives it generically.
	clientGC := genclient.New(wire.NewPool())
	b, err := clientGC.BrowseAndBind(ctx, browserRef, "converted")
	if err != nil {
		return err
	}
	fmt.Println("\n== client bound to:", b.SID().ServiceName)

	res, err := b.Invoke(ctx, "ListImages")
	if err != nil {
		return err
	}
	fmt.Println("   images:", res.Value)

	res, err = b.InvokeForm(ctx, "GetImageX", map[string]string{"GetImageX.name": "speicher"})
	if err != nil {
		return err
	}
	format, _ := res.Value.Field("format")
	data, _ := res.Value.Field("data")
	fmt.Printf("   GetImageX(speicher) -> format %s, data %s\n", format.Str, data.Str)

	// --- Cascade: follow the Upstream reference to the original.
	res, err = b.Invoke(ctx, "Upstream")
	if err != nil {
		return err
	}
	original, err := b.BindValue(ctx, res.Value)
	if err != nil {
		return err
	}
	fmt.Printf("\n== cascaded binding (depth %d) to %s\n", original.Depth(), original.SID().ServiceName)
	res, err = original.InvokeForm(ctx, "GetImage", map[string]string{"GetImage.name": "speicher"})
	if err != nil {
		return err
	}
	data, _ = res.Value.Field("data")
	fmt.Printf("   original GetImage(speicher) -> %s\n", data.Str)
	return nil
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
