package crawler

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"edonkey/internal/protocol"
	"edonkey/internal/serve"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// crawlWith runs a full crawl with the given worker count and an
// optionally lowered user-search reply cap.
func crawlWith(t *testing.T, cfg workload.Config, ccfg Config, workers, cap int) (*trace.Trace, Stats) {
	t.Helper()
	cfg.Workers = workers
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if cap > 0 {
		c.gateway.maxUserReplies = cap
	}
	tr, err := c.Run(cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	return tr, c.Stats
}

func requireTracesEqual(t *testing.T, want, got *trace.Trace, label string) {
	t.Helper()
	wantFiles, _ := want.Files()
	gotFiles, _ := got.Files()
	if !reflect.DeepEqual(wantFiles, gotFiles) {
		t.Fatalf("%s: file tables differ", label)
	}
	wantPeers, _ := want.Peers()
	gotPeers, _ := got.Peers()
	if !reflect.DeepEqual(wantPeers, gotPeers) {
		t.Fatalf("%s: peer tables differ", label)
	}
	if len(want.Days) != len(got.Days) {
		t.Fatalf("%s: day counts differ", label)
	}
	for i := range want.Days {
		if !want.Days[i].Equal(got.Days[i]) {
			t.Fatalf("%s: day index %d differs", label, i)
		}
	}
}

// The gateway-served crawl must be bit-identical for any worker count —
// the acceptance guarantee behind `edcrawl -workers`. The world side was
// already pinned; this covers the full wire path (discovery order,
// identity numbering, budget selection) end to end.
func TestCrawlDeterministicAcrossWorkers(t *testing.T) {
	cfg := crawlWorldConfig(31)
	want, wantStats := crawlWith(t, cfg, DefaultConfig(), 1, 0)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, gotStats := crawlWith(t, cfg, DefaultConfig(), workers, 0)
		if wantStats != gotStats {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, gotStats, wantStats)
		}
		requireTracesEqual(t, want, got, "crawl")
	}
}

// At population scale the 200-user reply cap truncates most nickname
// buckets — the paper's discovery bias. Unlike the boxed server (Go map
// order decided who fell off the end of a capped reply), the gateway
// enumerates users in nickname order, so even heavily truncated crawls
// are reproducible: same discovered subset, same trace, run after run
// and for any worker count.
func TestTruncatedDiscoveryIsDeterministic(t *testing.T) {
	cfg := crawlWorldConfig(32)
	// A one-letter sweep packs ~6 users into each query bucket; a cap of
	// 2 then truncates every reply, exactly like 200 does at 1M peers.
	ccfg := Config{PrefixLen: 1}
	const lowCap = 2
	want, wantStats := crawlWith(t, cfg, ccfg, 1, lowCap)
	oracle, _, err := workload.Collect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.ObservedPeers() >= oracle.ObservedPeers() {
		t.Fatalf("capped crawl saw %d peers, oracle %d — expected a strict loss",
			want.ObservedPeers(), oracle.ObservedPeers())
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, gotStats := crawlWith(t, cfg, ccfg, workers, lowCap)
		if wantStats != gotStats {
			t.Fatalf("workers=%d: truncated-crawl stats diverge", workers)
		}
		requireTracesEqual(t, want, got, "truncated crawl")
	}
}

// The publish-backed queries (source lookup, keyword search) must answer
// from the live world on every day — including files released after an
// earlier day's first query froze that day's index.
func TestGatewayPublishQueries(t *testing.T) {
	cfg := crawlWorldConfig(33)
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, Config{PrefixLen: 2, PublishFiles: true})
	if err != nil {
		t.Fatal(err)
	}
	g := c.gateway

	// sharedFile returns a catalogue file some logged-in client shares,
	// released no earlier than minRelease.
	sharedFile := func(minRelease int) int32 {
		for i := 0; i < w.NumClients(); i++ {
			if !g.participating[i] {
				continue
			}
			files, _ := w.CacheView(i)
			for _, fi := range files {
				if w.FileRelease(int(fi)) >= minRelease {
					return fi
				}
			}
		}
		t.Fatalf("no shared file released at day >= %d", minRelease)
		return -1
	}
	query := func(fi int32) (sources int, found bool) {
		eps := g.SourcesOf(w.FileHash(int(fi)))
		// Keyword search by the file's topic token must include it too.
		tok := fmt.Sprintf("t%03d", w.FileTopic(int(fi)))
		for _, f := range g.SearchFiles(tok) {
			if f.Hash == w.FileHash(int(fi)) {
				if int(f.Availability) != len(eps) {
					t.Fatalf("availability %d != %d sources", f.Availability, len(eps))
				}
				found = true
			}
		}
		return len(eps), found
	}

	g.beginDay(0)
	fi0 := sharedFile(-90)
	// Server connections query concurrently: the first source query of
	// the day freezes the index once, and every caller sees the same one.
	counts := make([]int, 4)
	var wg sync.WaitGroup
	for k := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[k] = len(g.SourcesOf(w.FileHash(int(fi0))))
		}()
	}
	wg.Wait()
	if n, ok := query(fi0); n == 0 || !ok || slices.ContainsFunc(counts, func(c int) bool { return c != n }) {
		t.Fatalf("day 0: file %d not served (sources %d, concurrent %v, in search %v)", fi0, n, counts, ok)
	}

	// Advance a day; a file released on day 1 enters caches after the
	// index was first built, and must still be served.
	w.Step()
	g.beginDay(1)
	fi1 := sharedFile(1)
	if n, ok := query(fi1); n == 0 || !ok {
		t.Fatalf("day 1: freshly released file %d not served (sources %d, in search %v)", fi1, n, ok)
	}
}

// The gateway and a serve.Snapshot frozen from the same world day must
// answer every directory query identically: same users in the same
// order for the sweep prefixes, same sources for every catalogue file
// and same entries for every token of every catalogue name.
func TestGatewayMatchesSnapshot(t *testing.T) {
	users := func(d protocol.Directory, prefix string) []protocol.UserEntry {
		var out []protocol.UserEntry
		d.UsersWithPrefix(prefix, func(u protocol.UserEntry) bool {
			out = append(out, u)
			return true
		})
		return out
	}
	for _, seed := range []uint64{1, 33} {
		w, err := workload.New(crawlWorldConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(w, Config{PrefixLen: 2, PublishFiles: true})
		if err != nil {
			t.Fatal(err)
		}
		g := c.gateway
		for day := 0; day <= 2; day++ {
			if day > 0 {
				w.Step()
			}
			g.beginDay(day)
			snap := serve.SnapshotFromWorld(w, day)
			label := fmt.Sprintf("seed %d day %d", seed, day)
			for _, p := range []string{"", "a", "b", "ka", "zz"} {
				if got, want := users(g, p), users(snap, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: prefix %q: gateway %d users, snapshot %d", label, p, len(got), len(want))
				}
			}
			if len(users(g, "")) == 0 {
				t.Fatalf("%s: nobody logged in", label)
			}
			tokens := map[string]bool{}
			for fi := 0; fi < w.NumFiles(); fi++ {
				hash := w.FileHash(fi)
				if got, want := g.SourcesOf(hash), snap.SourcesOf(hash); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: file %d: gateway %d sources, snapshot %d", label, fi, len(got), len(want))
				}
				for _, tok := range protocol.NameTokens(w.FileName(fi)) {
					tokens[tok] = true
				}
			}
			hits := 0
			for tok := range tokens {
				got, want := g.SearchFiles(tok), snap.SearchFiles(tok)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: keyword %q: gateway %d files, snapshot %d", label, tok, len(got), len(want))
				}
				hits += len(got)
			}
			if hits == 0 {
				t.Fatalf("%s: no keyword search found anything", label)
			}
		}
	}
}
