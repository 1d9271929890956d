package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		done <- b.String()
	}()
	runErr := f()
	_ = w.Close()
	return <-done, runErr
}

func TestDefaultRun(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-days", "90"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"COSM market simulation: 90 days",
		"trading-only",
		"mediation-only",
		"integrated",
		"crossover (section 2.3)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestTimelineFlag(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-days", "60", "-timeline"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trading-net") {
		t.Fatalf("timeline header missing:\n%s", out)
	}
}

func TestBadFlags(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-days", "banana"}) }); err == nil {
		t.Fatal("bad flag value must fail")
	}
	if _, err := capture(t, func() error { return run([]string{"-days", "0"}) }); err == nil {
		t.Fatal("invalid parameters must fail")
	}
}
