package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"waterimm/internal/api"
)

// TestOperationsDocCoversSurface keeps OPERATIONS.md honest: every
// flag registered here and every route and error code defined in the
// shared HTTP surface (internal/httpapi) must be mentioned in the
// runbook, so the doc cannot silently rot as the surface grows.
func TestOperationsDocCoversSurface(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	surface, err := os.ReadFile("../../internal/httpapi/httpapi.go")
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
		// The pprof sub-handlers are documented via their index.
		if len(r) > len("/debug/pprof/") && r[:len("/debug/pprof/")] == "/debug/pprof/" {
			r = "/debug/pprof/"
		}
		if !regexp.MustCompile(regexp.QuoteMeta(r)).Match(doc) {
			t.Errorf("endpoint %s is not documented in OPERATIONS.md", r)
		}
	}

	// Metric names the runbook must keep explaining: scrape the JSON
	// field tags off the engine's top-level metrics snapshot so a new
	// counter cannot ship undocumented. Nested structures (histogram
	// buckets, solver stats) are documented at the block level only.
	metricsSrc, err := os.ReadFile("../../internal/service/metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	snap := regexp.MustCompile(`(?s)type Snapshot struct \{.*?\n\}`).Find(metricsSrc)
	if snap == nil {
		t.Fatal("service.Snapshot struct not found — scrape out of date?")
	}
	metricRE := regexp.MustCompile("`json:\"([a-z_]+)\"`")
	var metrics []string
	for _, m := range metricRE.FindAllStringSubmatch(string(snap), -1) {
		metrics = append(metrics, m[1])
	}
	if len(metrics) < 15 {
		t.Fatalf("metric scrape found only %v — regexp out of date?", metrics)
	}
	// Every metric also needs a unit: its row of the "Metrics
	// reference" table (| Field | Unit | Meaning |) must fill the Unit
	// cell.
	_, ref, ok := strings.Cut(string(doc), "## Metrics reference")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Metrics reference" section`)
	}
	ref, _, _ = strings.Cut(ref, "\n## ")
	fieldRE := regexp.MustCompile("`([a-z_]+)`")
	units := map[string]string{}
	for _, line := range strings.Split(ref, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 {
			continue
		}
		for _, f := range fieldRE.FindAllStringSubmatch(cells[1], -1) {
			units[f[1]] = strings.TrimSpace(cells[2])
		}
	}
	for _, m := range metrics {
		if !regexp.MustCompile("`" + m + "`").Match(doc) {
			t.Errorf("metric %q is not documented in OPERATIONS.md", m)
		} else if units[m] == "" {
			t.Errorf("metric %q has no unit in the OPERATIONS.md metrics reference table", m)
		}
	}

	codeRE := regexp.MustCompile(`ErrCode[A-Za-z]+\s+= "([a-z_]+)"`)
	var codes []string
	for _, m := range codeRE.FindAllStringSubmatch(string(surface), -1) {
		codes = append(codes, m[1])
	}
	if len(codes) < 8 {
		t.Fatalf("error-code scrape found only %v — regexp out of date?", codes)
	}
	for _, c := range codes {
		if !regexp.MustCompile("`" + c + "`").Match(doc) {
			t.Errorf("error code %q is not documented in OPERATIONS.md", c)
		}
	}
}
