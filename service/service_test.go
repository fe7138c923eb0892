package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/logic"
	"repro/logic/bench"
	"repro/logic/script"
)

func testServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Timeout: 5 * time.Minute}}
}

func circuitBLIF(t *testing.T, name string) string {
	t.Helper()
	n, err := bench.Circuit(name)
	if err != nil {
		t.Fatal(err)
	}
	return n.EncodeBLIF()
}

// cliOptimize reproduces the mighty CLI's exact code path for a scripted
// run: decode, Session with the same options, optimize, encode. The server
// must be byte-identical to it.
func cliOptimize(t *testing.T, blif, script string) string {
	t.Helper()
	net, err := logic.DecodeBLIF(blif)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := logic.NewSession(logic.WithScript(script))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := sess.Optimize(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	return out.EncodeBLIF()
}

// TestConcurrentOptimizeMatchesCLI is the service's core guarantee:
// concurrent optimize requests through the daemon return networks
// byte-identical to the mighty CLI running the same script locally.
func TestConcurrentOptimizeMatchesCLI(t *testing.T) {
	const script = "eliminate(8); reshape-depth; eliminate; pushup"
	srcs := map[string]string{
		"b9":       circuitBLIF(t, "b9"),
		"count":    circuitBLIF(t, "count"),
		"my_adder": circuitBLIF(t, "my_adder"),
	}
	want := make(map[string]string, len(srcs))
	for name, blif := range srcs {
		want[name] = cliOptimize(t, blif, script)
	}

	// Workers=2 with 12 in-flight requests also exercises the queue.
	_, client := testServer(t, Config{Workers: 2})
	const perCircuit = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(srcs)*perCircuit)
	for name, blif := range srcs {
		for i := 0; i < perCircuit; i++ {
			wg.Add(1)
			go func(name, blif string) {
				defer wg.Done()
				resp, err := client.Optimize(context.Background(), OptimizeRequest{
					Format: "blif",
					Source: blif,
					Script: script,
				})
				if err != nil {
					errs <- err
					return
				}
				if resp.Network != want[name] {
					errs <- &mismatchError{name: name}
				}
			}(name, blif)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{ name string }

func (e *mismatchError) Error() string {
	return "server result for " + e.name + " differs from the CLI's bytes"
}

func TestCacheServesRepeatSubmissions(t *testing.T) {
	srv, client := testServer(t, Config{Workers: 2, CacheSize: 8})
	req := OptimizeRequest{
		Format: "blif",
		Source: circuitBLIF(t, "b9"),
		Script: "eliminate(8); cleanup",
	}
	first, err := client.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	second, err := client.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat submission not served from cache")
	}
	if second.Network != first.Network {
		t.Fatal("cached network differs")
	}
	// Whitespace-only source changes hit the same entry (the key hashes
	// the canonical re-encoded network).
	req.Source = "\n" + req.Source + "\n"
	third, err := client.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("canonicalized source missed the cache")
	}
	if srv.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", srv.cache.len())
	}
}

// TestDeadlineInterruptsSATVerify is the cancellation acceptance test at
// the service level: a request whose SAT-backed verification would run far
// longer than its deadline comes back promptly with a timeout error
// instead of waiting out the solver.
func TestDeadlineInterruptsSATVerify(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1})
	start := time.Now()
	_, err := client.Optimize(context.Background(), OptimizeRequest{
		Format:    "blif",
		Source:    circuitBLIF(t, "C6288"), // 16x16 multiplier: the classic hard CEC
		Objective: "flow",
		Effort:    3,
		Verify:    "sat",
		TimeoutMS: 60,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want timeout error, got success")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want an interruption", err)
	}
	// The flow plus an unbudgeted SAT CEC on C6288 takes many seconds;
	// the deadline must cut it short well before that.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to interrupt the request", elapsed)
	}
}

func TestBadRequests(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []struct {
		name string
		req  OptimizeRequest
		want string
	}{
		{"empty source", OptimizeRequest{}, "empty source"},
		{"bad format", OptimizeRequest{Format: "edif", Source: "x"}, "unknown format"},
		{"parse error", OptimizeRequest{Format: "blif", Source: "not blif"}, "parse"},
		{"bad script", OptimizeRequest{Format: "blif", Source: circuitBLIF(t, "b9"), Script: "reshap"},
			`unknown pass "reshap" at offset 0`},
		{"bad objective", OptimizeRequest{Format: "blif", Source: circuitBLIF(t, "b9"), Objective: "speed"},
			"unknown objective"},
		{"bad verify", OptimizeRequest{Format: "blif", Source: circuitBLIF(t, "b9"), Verify: "maybe"},
			"unknown verify engine"},
		{"negative timeout", OptimizeRequest{Format: "blif", Source: circuitBLIF(t, "b9"), TimeoutMS: -50},
			"timeout_ms must be non-negative"},
	}
	for _, c := range cases {
		_, err := client.Optimize(ctx, c.req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
		if err != nil && !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("%s: err = %v, want HTTP 400", c.name, err)
		}
	}
}

func TestPassesEndpoint(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	migPasses, err := client.Passes(ctx, "mig")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, p := range migPasses {
		if i > 0 && migPasses[i-1].Name > p.Name {
			t.Fatalf("pass list not sorted: %q before %q", migPasses[i-1].Name, p.Name)
		}
		if p.Signature == "window-rewrite(k,cuts)" {
			found = true
		}
	}
	if !found {
		t.Fatal("window-rewrite(k,cuts) signature missing from pass list")
	}
	aigPasses, err := client.Passes(ctx, "aig")
	if err != nil {
		t.Fatal(err)
	}
	if len(aigPasses) == 0 || len(aigPasses) == len(migPasses) {
		t.Fatalf("aig pass list suspicious: %d entries (mig has %d)", len(aigPasses), len(migPasses))
	}
	if _, err := client.Passes(ctx, "verilog"); err == nil {
		t.Fatal("unknown kind must error")
	}
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestVerifiedOptimizeReportsMethod(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1})
	resp, err := client.Optimize(context.Background(), OptimizeRequest{
		Format: "blif",
		Source: circuitBLIF(t, "my_adder"),
		Verify: "auto",
		Output: "verilog",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.VerifyMethod == "" {
		t.Fatal("verified run reports no method")
	}
	if !strings.Contains(resp.Network, "module") {
		t.Fatal("output=verilog did not render Verilog")
	}
	if resp.After.Depth >= resp.Before.Depth {
		t.Fatalf("flow did not reduce adder depth: %d -> %d", resp.Before.Depth, resp.After.Depth)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", &OptimizeResponse{Name: "a"})
	c.put("b", &OptimizeResponse{Name: "b"})
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", &OptimizeResponse{Name: "c"})
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d", c.len())
	}
}

// TestCacheKeyHonorsResolvedOutputFormat: two submissions of the same
// circuit in different input formats with a defaulted output must not
// collide in the cache (their defaulted outputs differ).
func TestCacheKeyHonorsResolvedOutputFormat(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1, CacheSize: 8})
	ctx := context.Background()
	n, err := bench.Circuit("b9")
	if err != nil {
		t.Fatal(err)
	}
	asBLIF, err := client.Optimize(ctx, OptimizeRequest{
		Format: "blif", Source: n.EncodeBLIF(), Script: "cleanup",
	})
	if err != nil {
		t.Fatal(err)
	}
	asVerilog, err := client.Optimize(ctx, OptimizeRequest{
		Format: "verilog", Source: n.EncodeVerilog(), Script: "cleanup",
	})
	if err != nil {
		t.Fatal(err)
	}
	if asBLIF.Format != "blif" || asVerilog.Format != "verilog" {
		t.Fatalf("response formats %q/%q, want blif/verilog", asBLIF.Format, asVerilog.Format)
	}
	if asVerilog.Cached && asVerilog.Network == asBLIF.Network {
		t.Fatal("verilog submission was served the cached BLIF rendering")
	}
	if !strings.Contains(asVerilog.Network, "module") {
		t.Fatalf("verilog response is not Verilog:\n%.120s", asVerilog.Network)
	}
}

func TestRequestBodyTooLarge(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1, MaxRequestBytes: 2048})
	_, err := client.Optimize(context.Background(), OptimizeRequest{
		Format: "blif",
		Source: strings.Repeat(".names a b\n1 1\n", 4096),
	})
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("err = %v, want HTTP 413", err)
	}
}

// TestScriptsEndpoint lists the named-strategy library and round-trips a
// listed name through /v1/optimize: the response must be byte-identical to
// submitting the strategy's script text inline.
func TestScriptsEndpoint(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1})
	ctx := context.Background()

	all, err := client.Scripts(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(script.All()) {
		t.Fatalf("listing has %d strategies, library has %d", len(all), len(script.All()))
	}
	var mig *script.Strategy
	for i, s := range all {
		if i > 0 && all[i-1].Name > s.Name {
			t.Fatalf("scripts not sorted: %q before %q", all[i-1].Name, s.Name)
		}
		if s.Name == "" || s.Script == "" || s.Description == "" {
			t.Fatalf("strategy listing entry incomplete: %+v", s)
		}
		if s.Kind == script.KindMIG && mig == nil {
			mig = &all[i]
		}
	}
	if mig == nil {
		t.Fatal("no MIG strategy in the listing")
	}

	migOnly, err := client.Scripts(ctx, "mig")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range migOnly {
		if s.Kind != script.KindMIG {
			t.Fatalf("kind=mig listing contains %q (%s)", s.Name, s.Kind)
		}
	}
	// netlist maps to mig, mirroring /v1/passes (decoded sources are
	// netlists and optimize through the MIG).
	asNetlist, err := client.Scripts(ctx, "netlist")
	if err != nil {
		t.Fatal(err)
	}
	if len(asNetlist) != len(migOnly) {
		t.Fatalf("kind=netlist returned %d strategies, kind=mig %d", len(asNetlist), len(migOnly))
	}
	if _, err := client.Scripts(ctx, "verilog"); err == nil {
		t.Fatal("unknown kind must error")
	}

	// Round trip: optimize by name, compare against the inline script.
	src := circuitBLIF(t, "count")
	byName, err := client.Optimize(ctx, OptimizeRequest{Source: src, ScriptName: mig.Name})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := client.Optimize(ctx, OptimizeRequest{Source: src, Script: mig.Script})
	if err != nil {
		t.Fatal(err)
	}
	if byName.Network != inline.Network {
		t.Fatalf("script_name %q and its inline script produced different networks", mig.Name)
	}
	// Both spellings resolve to the same cache key, so the inline
	// submission must have been a cache hit.
	if !inline.Cached {
		t.Fatal("inline script missed the cache entry its script_name twin created")
	}
}

// TestScriptNameRequestValidation pins the script_name error cases.
func TestScriptNameRequestValidation(t *testing.T) {
	_, client := testServer(t, Config{Workers: 1})
	ctx := context.Background()
	src := circuitBLIF(t, "b9")
	cases := []struct {
		name string
		req  OptimizeRequest
		want string
	}{
		{"unknown name", OptimizeRequest{Source: src, ScriptName: "no-such"}, "unknown script_name"},
		{"both set", OptimizeRequest{Source: src, ScriptName: "migscript", Script: "cleanup"}, "mutually exclusive"},
		{"aig strategy", OptimizeRequest{Source: src, ScriptName: "aigscript"}, "targets aig networks"},
	}
	for _, c := range cases {
		_, err := client.Optimize(ctx, c.req)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
		if err != nil && !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("%s: err = %v, want HTTP 400", c.name, err)
		}
	}
}

// TestOptimizeRejectsUnknownFields: a request field the server does not
// know — a retired option such as "partitions", or a misspelling — is a
// 400 that names it, never silently ignored. A valid body still runs, and
// /metrics carries no partition families.
func TestOptimizeRejectsUnknownFields(t *testing.T) {
	srv, client := testServer(t, Config{Workers: 1})
	src, err := json.Marshal(circuitBLIF(t, "my_adder"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := client.HTTPClient.Post(client.BaseURL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}
	for field, body := range map[string]string{
		"partitions": fmt.Sprintf(`{"source": %s, "partitions": 4}`, src),
		"scirpt":     fmt.Sprintf(`{"source": %s, "scirpt": "eliminate"}`, src),
	} {
		code, msg := post(body)
		if code != http.StatusBadRequest || !strings.Contains(msg, `unknown field \"`+field+`\"`) {
			t.Errorf("%s: HTTP %d %s, want 400 naming the field", field, code, msg)
		}
	}
	if code, msg := post(fmt.Sprintf(`{"source": %s, "script": "eliminate"}`, src)); code != http.StatusOK {
		t.Fatalf("valid body: HTTP %d %s", code, msg)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "migd_partition_") {
		t.Fatal("/metrics still exposes a migd_partition_ family")
	}
}
