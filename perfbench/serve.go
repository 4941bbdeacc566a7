package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"edonkey/internal/edonkey"
	"edonkey/internal/loadgen"
	"edonkey/internal/protocol"
	"edonkey/internal/serve"
)

// serveSpec is one serving workload: an offered rate and a class mix.
type serveSpec struct {
	rate float64
	mix  loadgen.Mix
}

// serveWorkloads differ only in the share of keyword search: without it
// every message is tens of bytes to ~10 KB (per-message cost dominates);
// with it each search reply is ~9k entries (~0.5 MB) and bulk lookup,
// encode and bytes on the wire dominate. Rates put the server at about
// half of one core.
var serveWorkloads = map[string]serveSpec{
	"serve-small": {rate: 20000, mix: withoutSearch(loadgen.DefaultMix())},
	"serve-day":   {rate: 300, mix: loadgen.DefaultMix()},
}

func withoutSearch(m loadgen.Mix) loadgen.Mix {
	m[loadgen.ClassSearch] = 0
	return m
}

const (
	serveConns  = 2                      // one process, at most two connections on a 2-core box
	warmup      = time.Second            // leading part of the schedule kept out of the figures
	setupStarts = 3                      // edserved starts per run; setup_s is their median
	replayCap   = 50000                  // requests replayed in-process by a traced run
	maxLagShare = 0.25                   // client lag p50 beyond this share of small_p50_ms: the client is measured
	maxBacklog  = 500 * time.Millisecond // last completion this far past its due time = overload
)

// runServePhase builds the oracle, starts edserved (several times, for
// the set-up median), drives the open loop and records the serving
// metrics. Traced, it also replays the stream in-process.
func runServePhase(rep *report, spec serveSpec, seed uint64, seconds int, edserved string, tr *tracer) error {
	t0 := time.Now()
	warmN := int(spec.rate * warmup.Seconds())
	n := warmN + int(spec.rate*float64(seconds))
	st, err := buildStream(serveWorldConfig(), seed, spec.mix, n)
	if err != nil {
		return err
	}
	debug.FreeOSMemory() // no scavenging of the pipeline's heap during the load
	fmt.Printf("serve: oracle of %d distinct requests for %d scheduled (%d users, %d files) in %.2fs\n",
		len(st.frames), n, st.snap.NumUsers(), st.snap.NumFiles(), time.Since(t0).Seconds())

	var readies, peaks []float64
	var srv *child
	for i := 0; i < setupStarts; i++ {
		c, err := startServer(edserved)
		if err != nil {
			return err
		}
		hwm, err := vmHWM(fmt.Sprint(c.cmd.Process.Pid))
		if err != nil {
			c.stop()
			return err
		}
		readies, peaks = append(readies, c.ready.Seconds()), append(peaks, hwm)
		if c.users != st.snap.NumUsers() || c.files != st.snap.NumFiles() {
			rep.fail("edserved serves %d users / %d files, oracle has %d / %d",
				c.users, c.files, st.snap.NumUsers(), st.snap.NumFiles())
		}
		if i < setupStarts-1 {
			if err := c.stop(); err != nil {
				return err
			}
			continue
		}
		srv = c
	}
	defer srv.stop()
	serveSetup := median(readies)
	rep.set("serve_setup_s", serveSetup, "s", len(readies))
	rep.set("setup_s", serveSetup+rep.Metrics["workload.build_s"].Value, "s", len(readies))
	rep.set("peak_rss_mb", median(peaks), "MB", len(peaks))

	conns := make([]net.Conn, serveConns)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", srv.addr); err != nil {
			return err
		}
		defer conns[i].Close()
	}
	l := &openLoop{conns: conns, frames: st.frames, want: st.want, reqs: st.reqs, rate: spec.rate}
	pid := srv.cmd.Process.Pid
	var marks []procSample
	var clientCPU []time.Duration
	var procErr error
	l.run(warmN, func() {
		s, err := readProc(pid)
		if err != nil {
			procErr = err
		}
		marks = append(marks, s)
		clientCPU = append(clientCPU, processCPU())
	})
	if procErr != nil {
		return procErr
	}
	rss, err := vmHWM(fmt.Sprint(pid))
	if err != nil {
		return err
	}
	rep.set("serve.rss_after_load_mb", rss, "MB", 1)
	loadMetrics(rep, l, st, warmN, seconds, marks, clientCPU[1]-clientCPU[0])

	if tr != nil {
		end := min(len(st.reqs), warmN+replayCap)
		replayMetrics(rep, st, st.reqs[warmN:end], tr)
	}
	return nil
}

// loadMetrics turns the open loop's stamps and the server's /proc deltas
// into the serving metrics, and flags a run whose client fell behind.
func loadMetrics(rep *report, l *openLoop, st *stream, warmN, windows int, marks []procSample, clientCPU time.Duration) {
	var lat, small, lag, svc []float64
	var byClass [loadgen.ClassBrowse + 1][]float64
	var failed int64
	lastDone, lastDue := int64(0), int64(0)
	for k, idx := range l.reqs {
		if !l.ok[k] {
			failed++
			continue
		}
		due := int64(l.due(k))
		lastDone, lastDue = max(lastDone, l.done[k]), max(lastDue, due)
		if k < warmN {
			continue
		}
		v := ms(l.done[k] - due)
		lat = append(lat, v)
		c := st.class[idx]
		byClass[c] = append(byClass[c], v)
		if c != loadgen.ClassSearch {
			small = append(small, v)
		}
		lag = append(lag, ms(l.sent[k]-due))
		svc = append(svc, ms(l.done[k]-l.sent[k]))
	}
	rep.Attempted += int64(len(l.reqs))
	rep.Failed += failed
	if failed > 0 {
		rep.fail("%d of %d requests failed (mismatch, timeout, reset or missing reply)", failed, len(l.reqs))
	}
	done := len(lat)
	if done == 0 {
		rep.fail("no request completed in the measured window")
		return
	}
	for _, xs := range [][]float64{lat, lag, svc} {
		slices.Sort(xs)
	}
	rep.set("all_p50_ms", quantile(lat, 0.50), "ms", done)
	rep.set("all_p99_ms", quantile(lat, 0.99), "ms", done)
	rep.set("small_p50_ms", windowed(small, windows, 0.50), "ms", len(small))
	rep.set("small_p99_ms", windowed(small, min(windows, len(small)/1000), 0.99), "ms", len(small))
	for c, xs := range byClass {
		if len(xs) > 0 {
			slices.Sort(xs)
			rep.set("class."+loadgen.Class(c).String()+"_p50_ms", quantile(xs, 0.50), "ms", len(xs))
			rep.set("class."+loadgen.Class(c).String()+"_p99_ms", quantile(xs, 0.99), "ms", len(xs))
		}
	}
	rep.set("client.lag_p50_ms", quantile(lag, 0.50), "ms", done)
	rep.set("client.lag_p99_ms", quantile(lag, 0.99), "ms", done)
	rep.set("client.svc_p50_ms", quantile(svc, 0.50), "ms", done)
	rep.set("client.cpu_us_per_req", float64(clientCPU.Microseconds())/float64(done), "us", done)

	a, b := marks[0], marks[1]
	cpu := b.cpu - a.cpu
	rep.set("server_cpu_us_per_req", float64(cpu.Microseconds())/float64(done), "us", done)
	rep.set("serve.cpu_util", cpu.Seconds()/b.at.Sub(a.at).Seconds(), "ratio", done)
	rep.set("serve.read_syscalls_per_req", float64(b.syscr-a.syscr)/float64(done), "count", done)
	rep.set("serve.write_syscalls_per_req", float64(b.syscw-a.syscw)/float64(done), "count", done)
	rep.set("serve.wire_bytes_per_req", float64(b.wchar-a.wchar)/float64(done), "B", done)

	if lagP50, p50 := quantile(lag, 0.50), rep.Metrics["small_p50_ms"].Value; lagP50 > maxLagShare*p50 {
		rep.fail("invalid run: client lag p50 %.4f ms exceeds %.0f%% of small_p50_ms %.4f ms, the client fell behind its schedule",
			lagP50, 100*maxLagShare, p50)
	}
	if backlog := time.Duration(lastDone - lastDue); backlog > maxBacklog {
		rep.fail("invalid run: last reply %v after the last due time, completions lagged the schedule", backlog)
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// windowed splits samples, in due-time order, into n contiguous windows
// and returns the median over the windows of each window's q-quantile.
// A neighbour's burst on a shared box inflates the windows it overlaps;
// the median over windows keeps such a burst from moving the figure.
func windowed(xs []float64, n int, q float64) float64 {
	n = max(1, min(n, len(xs)))
	per := make([]float64, n)
	for w := range per {
		part := slices.Clone(xs[w*len(xs)/n : (w+1)*len(xs)/n])
		slices.Sort(part)
		per[w] = quantile(part, q)
	}
	return median(per)
}

// quantile reads the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

// replayMetrics replays reqs in-process through the public layer
// functions the server's request loop calls — protocol.ReadMessageInto,
// then ServerCore.AppendReply over the snapshot — first untraced (time
// and allocations), then traced with a span per layer call. Every
// replayed reply must equal the oracle.
func replayMetrics(rep *report, st *stream, reqs []int32, tr *tracer) {
	n := float64(len(reqs))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	replyBytes, bad := replay(st, reqs, nil)
	plain := time.Since(t0)
	runtime.ReadMemStats(&after)

	first := tr.len()
	t0 = time.Now()
	_, badTraced := replay(st, reqs, tr)
	traced := time.Since(t0)
	if bad+badTraced > 0 {
		rep.fail("in-process replay: %d replies differ from the oracle", bad+badTraced)
	}

	lt := tr.layerTimes(first)
	decode := lt["protocol.ReadMessageInto"].total
	lookup := lt["serve.lookup"].total
	encode := lt["protocol.AppendReply"].self
	rep.set("protocol.decode_ns_per_req", float64(decode.Nanoseconds())/n, "ns", len(reqs))
	rep.set("serve.lookup_ns_per_req", float64(lookup.Nanoseconds())/n, "ns", len(reqs))
	rep.set("protocol.encode_ns_per_req", float64(encode.Nanoseconds())/n, "ns", len(reqs))
	rep.set("protocol.allocs_per_req", float64(after.Mallocs-before.Mallocs)/n, "count", len(reqs))
	rep.set("protocol.alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/n, "B", len(reqs))
	rep.set("protocol.reply_bytes_per_req", float64(replyBytes)/n, "B", len(reqs))
	rep.set("bench.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1, "ratio", len(reqs))
}

// replay answers reqs the way serve.Server's request loop does and
// returns the reply bytes produced and how many differ from the oracle.
func replay(st *stream, reqs []int32, tr *tracer) (replyBytes int64, bad int) {
	dir := &timedDir{snap: st.snap, tr: tr}
	core := protocol.ServerCore{Dir: protocol.Directory(st.snap), MaxUserReplies: edonkey.DefaultMaxUserReplies, SupportsUserSearch: true}
	if tr != nil {
		core.Dir = dir
	}
	var rd bytes.Reader
	var scratch, out []byte
	for k, idx := range reqs {
		root := tr.begin("request", int64(k), -1)
		rd.Reset(st.frames[idx])
		h := tr.begin("protocol.ReadMessageInto", int64(k), root)
		m, sc, err := protocol.ReadMessageInto(&rd, scratch)
		tr.end(h)
		scratch = sc
		if err != nil {
			bad++
			tr.end(root)
			continue
		}
		h = tr.begin("protocol.AppendReply", int64(k), root)
		dir.id, dir.parent = int64(k), h
		out = appendServerReply(&core, out[:0], m)
		tr.end(h)
		tr.end(root)
		replyBytes += int64(len(out))
		if !bytes.Equal(out, st.want[idx]) {
			bad++
		}
	}
	return replyBytes, bad
}

// appendServerReply mirrors serve.Server's dispatch: logins are answered
// by the session layer, everything else by ServerCore.AppendReply, with
// a Reject for requests the core does not own.
func appendServerReply(core *protocol.ServerCore, dst []byte, m protocol.Message) []byte {
	if req, ok := m.(*protocol.LoginRequest); ok {
		out, _ := protocol.AppendMessage(dst, &protocol.IDChange{ClientID: highID(req.Endpoint.IP)})
		return out
	}
	out, handled := core.AppendReply(dst, m)
	if !handled {
		out, _ = protocol.AppendMessage(dst, &protocol.Reject{Reason: rejectReason})
	}
	return out
}

// timedDir wraps the snapshot so each directory lookup is its own span,
// a child of the AppendReply span. Streamed lookups are collected first
// and yielded after the span closes, so reply encoding done inside the
// yield callback is not charged to the lookup.
type timedDir struct {
	snap   *serve.Snapshot
	tr     *tracer
	id     int64
	parent int32
	users  []protocol.UserEntry
	eps    []protocol.Endpoint
}

func (d *timedDir) Servers() []protocol.Endpoint { return d.snap.Servers() }

func (d *timedDir) UsersWithPrefix(prefix string, yield func(protocol.UserEntry) bool) {
	h := d.tr.begin("serve.lookup", d.id, d.parent)
	d.users = d.users[:0]
	d.snap.UsersWithPrefix(prefix, func(u protocol.UserEntry) bool {
		d.users = append(d.users, u)
		return len(d.users) <= edonkey.DefaultMaxUserReplies // the core stops at the cap's next entry
	})
	d.tr.end(h)
	for _, u := range d.users {
		if !yield(u) {
			return
		}
	}
}

func (d *timedDir) SourcesOf(hash [16]byte) []protocol.Endpoint {
	h := d.tr.begin("serve.lookup", d.id, d.parent)
	defer d.tr.end(h)
	return d.snap.SourcesOf(hash)
}

func (d *timedDir) SearchFiles(kw string) []protocol.FileEntry {
	h := d.tr.begin("serve.lookup", d.id, d.parent)
	defer d.tr.end(h)
	return d.snap.SearchFiles(kw)
}

func (d *timedDir) ForEachSource(hash [16]byte, yield func(protocol.Endpoint) bool) {
	h := d.tr.begin("serve.lookup", d.id, d.parent)
	d.eps = d.eps[:0]
	d.snap.ForEachSource(hash, func(e protocol.Endpoint) bool {
		d.eps = append(d.eps, e)
		return true
	})
	d.tr.end(h)
	for _, e := range d.eps {
		if !yield(e) {
			return
		}
	}
}
