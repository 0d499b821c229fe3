package main

import (
	"os"
	"regexp"
	"testing"

	"waterimm/internal/api"
)

// TestOperationsDocCoversRouterSurface keeps the Router section of
// OPERATIONS.md honest: every flag registered here and every route the
// router serves (internal/router) must be mentioned in the runbook.
func TestOperationsDocCoversRouterSurface(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	surface, err := os.ReadFile("../../internal/router/router.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("OPERATIONS.md must exist at the repo root: %v", err)
	}

	flagRE := regexp.MustCompile(`flag\.(?:String|Int64|Int|Bool|Duration|Float64)\("([a-z-]+)"`)
	var flags []string
	for _, m := range flagRE.FindAllStringSubmatch(string(src), -1) {
		flags = append(flags, m[1])
	}
	if len(flags) < 5 {
		t.Fatalf("flag scrape found only %v — regexp out of date?", flags)
	}
	for _, f := range flags {
		if !regexp.MustCompile("`-" + f + "`").Match(doc) {
			t.Errorf("flag -%s is not documented in OPERATIONS.md", f)
		}
	}

	routeRE := regexp.MustCompile(`mux\.Handle(?:Func)?\("(?:GET|POST|DELETE) ([^"]+)"`)
	var routes []string
	for _, m := range routeRE.FindAllStringSubmatch(string(surface), -1) {
		routes = append(routes, m[1])
	}
	// The synchronous endpoints are registered from the kind table in
	// internal/api, not by literal mux calls.
	for _, k := range api.Kinds {
		if k.Path != "" {
			routes = append(routes, k.Path)
		}
	}
	if len(routes) < 8 {
		t.Fatalf("route scrape found only %v — regexp out of date?", routes)
	}
	for _, r := range routes {
		if !regexp.MustCompile(regexp.QuoteMeta(r)).Match(doc) {
			t.Errorf("router endpoint %s is not documented in OPERATIONS.md", r)
		}
	}

	// The operational vocabulary the section must keep explaining: the
	// health states the router reports, the response headers it stamps,
	// and the affinity scheme its job IDs carry.
	for _, term := range []string{
		"healthy", "draining", "dead", "degraded",
		"X-Backend", "X-Cache", "X-Request-Id",
		"rendezvous", "edge!", "Retry-After",
	} {
		if !regexp.MustCompile(regexp.QuoteMeta(term)).Match(doc) {
			t.Errorf("router term %q is not documented in OPERATIONS.md", term)
		}
	}
}
