package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsm"
	"repro/internal/gen"
	"repro/internal/kiss"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// Serve workload parameters. The end-to-end figures come from a closed
// loop with nproc callers. The traced run offers an open loop at rates
// stepped from half the nominal rate, about a third of the closed-loop
// capacity of this mix on a 2-CPU host, up to about that capacity, to find
// the highest rate whose p99 stays within latencyLimit. Open-loop latency
// is a traced-run figure because queueing multiplies host contention: on
// a shared 2-CPU host its p50 spread by more than half its median over ten
// runs.
const (
	nominalRate  = 150.0 // requests per second
	latencyLimit = 50 * time.Millisecond
	// lateLimit is how late (p99) the generator may send before a run is
	// invalid. The generator shares the CPUs with the server, and the Go
	// scheduler preempts at 10 ms, so p99 lateness near 10–15 ms is normal.
	lateLimit = latencyLimit / 2
	streamLen = 4000
	// latencyWindows is how many consecutive windows of the closed loop
	// its figures are the median over.
	latencyWindows = 10
	// recentRepeats bounds how far back a permuted repeat reaches, well
	// inside the server's default 256-entry result cache.
	recentRepeats = 64
)

// request is one pre-built HTTP request and the check its reply must pass.
type request struct {
	kind  string
	path  string
	body  []byte
	check func(status int, body []byte) (unproven bool, err error)
}

// encodeReply is the part of an encode reply the checker reads.
type encodeReply struct {
	Feasible bool              `json:"feasible"`
	Bits     int               `json:"bits"`
	Codes    map[string]string `json:"codes"`
	Optimal  bool              `json:"optimal"`
	Cost     *struct {
		Violations int `json:"violations"`
	} `json:"cost"`
	Pipeline *pipeline.Report `json:"pipeline"`
}

func decodeOK(status int, body []byte, v any) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	return json.Unmarshal(body, v)
}

// exactCheck holds an exact reply to the request's own constraints.
func exactCheck(p *problem, b bounds) func(int, []byte) (bool, error) {
	return func(status int, body []byte) (bool, error) {
		var r encodeReply
		if err := decodeOK(status, body, &r); err != nil {
			return false, err
		}
		codes, err := parseCodes(p, r.Codes, r.Bits)
		if err != nil {
			return false, err
		}
		return !r.Optimal, checkAnswer(p, b, answer{codes: codes, width: r.Bits, optimal: r.Optimal})
	}
}

// heuristicCheck holds a bounded-length reply to its width and recounts
// the face violations it reports.
func heuristicCheck(p *problem, width int) func(int, []byte) (bool, error) {
	return func(status int, body []byte) (bool, error) {
		var r encodeReply
		if err := decodeOK(status, body, &r); err != nil {
			return false, err
		}
		if r.Bits != width {
			return false, fmt.Errorf("asked for %d bits, got %d", width, r.Bits)
		}
		codes, err := parseCodes(p, r.Codes, r.Bits)
		if err != nil {
			return false, err
		}
		if err := checkCodes(&problem{names: p.names}, codes, width); err != nil {
			return false, err
		}
		if r.Cost == nil {
			return false, fmt.Errorf("no cost in heuristic reply")
		}
		if v := faceViolations(p, codes, width); v != r.Cost.Violations {
			return false, fmt.Errorf("reply claims %d face violations, the codes violate %d", r.Cost.Violations, v)
		}
		return false, nil
	}
}

func feasibleCheck(status int, body []byte) (bool, error) {
	var r encodeReply
	if err := decodeOK(status, body, &r); err != nil {
		return false, err
	}
	if !r.Feasible {
		return false, fmt.Errorf("feasible-by-construction set reported infeasible")
	}
	return false, nil
}

func pipelineCheck(states int) func(int, []byte) (bool, error) {
	return func(status int, body []byte) (bool, error) {
		var r encodeReply
		if err := decodeOK(status, body, &r); err != nil {
			return false, err
		}
		if r.Pipeline == nil {
			return false, fmt.Errorf("no pipeline report")
		}
		return !r.Pipeline.Optimal, checkReport(r.Pipeline, states, 0)
	}
}

// batchCheck holds every item of a batch reply to its own constraints.
func batchCheck(items []*problem, bnds []bounds) func(int, []byte) (bool, error) {
	return func(status int, body []byte) (bool, error) {
		var r struct {
			Items []struct {
				Index  int             `json:"index"`
				Status int             `json:"status"`
				Result json.RawMessage `json:"result"`
			} `json:"items"`
		}
		if err := decodeOK(status, body, &r); err != nil {
			return false, err
		}
		if len(r.Items) != len(items) {
			return false, fmt.Errorf("%d items answered for %d sent", len(r.Items), len(items))
		}
		unproven := false
		for _, it := range r.Items {
			if it.Index < 0 || it.Index >= len(items) {
				return false, fmt.Errorf("item index %d out of range", it.Index)
			}
			u, err := exactCheck(items[it.Index], bnds[it.Index])(it.Status, it.Result)
			if err != nil {
				return false, fmt.Errorf("item %d: %w", it.Index, err)
			}
			unproven = unproven || u
		}
		return unproven, nil
	}
}

func encodeBody(fields map[string]any) []byte {
	b, err := json.Marshal(fields)
	if err != nil {
		panic(err)
	}
	return b
}

// withExtraComponent returns p plus one small disconnected component on
// fresh symbols, so the set misses the whole-request cache while its other
// components hit the component cache.
func withExtraComponent(p *problem, tag int) *problem {
	q := *p
	q.names = append(append([]string(nil), p.names...),
		fmt.Sprintf("x%da", tag), fmt.Sprintf("x%db", tag), fmt.Sprintf("x%dc", tag))
	n := len(p.names)
	q.faces = append(append([]face(nil), p.faces...), face{members: []int{n, n + 1}})
	q.doms = append(append([][2]int(nil), p.doms...), [2]int{n + 2, n})
	return &q
}

// inKISS reports whether every state of m occurs in a transition. KISS2
// text names states only through transitions, so a machine with a state
// that has none cannot be sent: kiss.Format still declares it in .s and
// the server rejects the count.
func inKISS(m *fsm.FSM) bool {
	seen := make([]bool, m.NumStates())
	for _, t := range m.Trans {
		seen[t.From], seen[t.To] = true, true
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// buildStream generates the seeded request mix.
func buildStream(seed int64) []*request {
	rng := rand.New(rand.NewSource(seed))
	var out []*request
	type sent struct {
		p *problem
		b bounds
	}
	var exacts, multis []sent
	// next numbers the stream's fresh draws, multi-component ones
	// included; per-seed sets are drawn by it.
	next, machines, nextFSM := 0, 0, 0
	// Sets of 10 and 11 symbols and multi-component sets come from the
	// default seed, in the order requests need them, for the reason
	// machines do: now and then one costs seconds.
	nextFixed, nextMulti := 0, 0
	fresh := func(n int) (*problem, bounds, int) {
		next++
		s, k := seed, next
		if n >= 10 {
			nextFixed++
			s, k = defaultSeed, nextFixed
		}
		g := gen.Random(genSeed(s, 50, k), gen.DefaultConfig(n))
		return problemOf(g.Set), bounds{witness: g.Witness.Bits}, g.Witness.Bits
	}
	perm := func(p *problem) []int { return rng.Perm(p.lineCount()) }
	add := func(kind, path string, body []byte, check func(int, []byte) (bool, error)) {
		out = append(out, &request{kind: kind, path: path, body: body, check: check})
	}
	exactReq := func(kind string, p *problem, b bounds, order []int, decompose bool) {
		add(kind, "/v1/encode", encodeBody(map[string]any{"constraints": p.text(order), "decompose": decompose}), exactCheck(p, b))
	}
	// Kinds are dealt from a shuffled deck of 100, so that every seed
	// sends the same mix; the seed changes only the order and the inputs.
	var deck []int
	for len(out) < streamLen {
		if len(deck) == 0 {
			deck = rng.Perm(100)
		}
		r := deck[0]
		deck = deck[1:]
		switch {
		case r < 35 || r < 55 && len(exacts) == 0:
			p, b, _ := fresh(8 + rng.Intn(4))
			exacts = append(exacts, sent{p, b})
			exactReq("exact", p, b, nil, false)
		case r < 55:
			s := exacts[len(exacts)-1-rng.Intn(min(len(exacts), recentRepeats))]
			exactReq("repeat", s.p, s.b, perm(s.p), false)
		case r < 65:
			if len(multis) > 0 && rng.Intn(2) == 0 {
				s := multis[len(multis)-1-rng.Intn(min(len(multis), recentRepeats))]
				if rng.Intn(2) == 0 {
					exactReq("decompose", s.p, s.b, perm(s.p), true)
				} else {
					exactReq("decompose", withExtraComponent(s.p, len(out)), bounds{}, nil, true)
				}
				continue
			}
			n := []int{16, 24}[rng.Intn(2)]
			cfg := gen.DefaultConfig(n)
			cfg.Components = map[int]int{16: 5, 24: 8}[n]
			next++
			nextMulti++
			g := gen.Random(genSeed(defaultSeed, 51, nextMulti), cfg)
			s := sent{problemOf(g.Set), bounds{witness: g.Witness.Bits}}
			multis = append(multis, s)
			exactReq("decompose", s.p, s.b, nil, true)
		case r < 80:
			// Machines come from the default seed in every run, in the
			// order requests need them: a pipeline request costs five times
			// an exact one, and now and then a machine costs seconds, so
			// per-seed machines would make every timing a lottery.
			cfg := gen.DefaultFSMConfig(6 + machines%6)
			cfg.Partial = machines/6%2 == 1
			machines++
			var m *fsm.FSM
			for m == nil || !inKISS(m) {
				nextFSM++
				m = gen.RandomFSM(genSeed(defaultSeed, 52, nextFSM), cfg)
			}
			add("pipeline", "/v1/pipeline", encodeBody(map[string]any{"kiss": kiss.Format(m)}), pipelineCheck(m.NumStates()))
		case r < 90:
			p, _, w := fresh(8 + rng.Intn(4))
			add("heuristic", "/v1/encode", encodeBody(map[string]any{"constraints": p.text(nil), "mode": "heuristic", "bits": w}), heuristicCheck(p, w))
		case r < 95:
			p, _, _ := fresh(8 + rng.Intn(4))
			add("feasible", "/v1/encode", encodeBody(map[string]any{"constraints": p.text(nil), "mode": "feasible"}), feasibleCheck)
		default:
			var ps []*problem
			var bs []bounds
			var items []map[string]any
			for i := 0; i < 8; i++ {
				var p *problem
				var b bounds
				if i < 5 {
					p, b, _ = fresh(8 + rng.Intn(2))
				} else {
					j := rng.Intn(5)
					p, b = ps[j], bs[j]
				}
				ps, bs = append(ps, p), append(bs, b)
				items = append(items, map[string]any{"constraints": p.text(nil)})
			}
			add("batch", "/v1/encode/batch", encodeBody(map[string]any{"items": items}), batchCheck(ps, bs))
		}
	}
	return out
}

// sample is one request's fate.
type sample struct {
	latMS float64 // from when it was due (open loop) or sent (closed loop)
	// wireMS runs from when the request got a connection, so that it
	// leaves out the wait for one of the client's nproc connections.
	wireMS   float64
	lateMS   float64 // how late the generator sent it
	err      error
	unproven bool
	exact    bool
	done     time.Time
}

// service is the in-process server on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startService() (*service, error) {
	srv := server.New(server.Config{
		// Retain every trace of a run for the traced run's per-layer view.
		TraceBuffer: 1 << 15,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	conns := runtime.NumCPU()
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// send issues one request and checks its reply; gotConn is when the
// request got its connection.
func (s *service) send(r *request) (gotConn time.Time, unproven bool, err error) {
	gotConn = time.Now()
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return gotConn, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return gotConn, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return gotConn, false, err
	}
	unproven, err = r.check(resp.StatusCode, body)
	return gotConn, unproven, err
}

func (s *service) get(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// loadgen walks the request stream, cycling through it.
type loadgen struct {
	svc    *service
	stream []*request
	next   atomic.Int64
}

func (g *loadgen) take() *request {
	return g.stream[int(g.next.Add(1)-1)%len(g.stream)]
}

func (g *loadgen) fire(r *request, due, sent time.Time) sample {
	gotConn, unproven, err := g.svc.send(r)
	end := time.Now()
	if err != nil {
		err = fmt.Errorf("%s request: %w", r.kind, err)
	}
	return sample{
		done: end, latMS: ms(end.Sub(due)), wireMS: ms(end.Sub(gotConn)), lateMS: ms(sent.Sub(due)),
		err: err, unproven: unproven, exact: r.kind != "pipeline" && r.kind != "heuristic" && r.kind != "feasible",
	}
}

// capacity runs the closed loop for d and reports, each as the median
// over consecutive windows of the run, its completions per second and the
// p50 and p90 of the latency of the requests completed in the window, so
// that a burst of host contention in one window moves none of them.
func (g *loadgen) capacity(conns int, d time.Duration) (ss []sample, rate, p50, p90 float64) {
	start := time.Now()
	ss = g.closed(conns, d)
	win := d / latencyWindows
	byWin := make([][]sample, latencyWindows)
	for _, s := range ss {
		if w := int(s.done.Sub(start) / win); w < latencyWindows {
			byWin[w] = append(byWin[w], s)
		}
	}
	var rates, p50s, p90s []float64
	for _, w := range byWin {
		lat := latencies(w)
		rates = append(rates, float64(len(w))/win.Seconds())
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
	}
	return ss, median(rates), median(p50s), median(p90s)
}

// closed runs conns callers that each wait for a reply before sending
// again, for d.
func (g *loadgen) closed(conns int, d time.Duration) []sample {
	end := time.Now().Add(d)
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				now := time.Now()
				s := g.fire(g.take(), now, now)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// open sends at rate requests per second on a fixed schedule for d,
// whatever the replies do, and waits for every reply.
func (g *loadgen) open(rate float64, d time.Duration) []sample {
	start := time.Now()
	n := int(rate * d.Seconds())
	out := make([]sample, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		r := g.take()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out[k] = g.fire(r, due, time.Now())
		}(k)
	}
	wg.Wait()
	return out
}

func serveRun() *run {
	var (
		stream []*request
		svc    *service
	)
	r := &run{}
	r.close = func() {
		if svc != nil {
			svc.stop()
			svc = nil
		}
	}
	r.setup = func(seed int64) error {
		stream = buildStream(seed)
		var err error
		svc, err = startService()
		return err
	}
	r.measure = func(d time.Duration, traced bool) (*report, error) {
		g := &loadgen{svc: svc, stream: stream}
		if traced {
			return serveTraced(g, d)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		ss, capacity, p50, p90 := g.capacity(runtime.NumCPU(), d)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		rep := tally(ss)
		rep.e2e = map[string]float64{
			"ops_per_s":       capacity,
			"p50_ms":          p50,
			"p90_ms":          p90,
			"cpu_ms_per_op":   ms(cpu) / float64(len(ss)),
			"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(ss)),
		}
		return rep, nil
	}
	return r
}

// lateness is the p99 of how late the generator sent requests. A run
// where it exceeds lateLimit did not offer the load it claims and is
// invalid.
func lateness(ss []sample) float64 {
	late := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = s.lateMS
	}
	return quantile(late, 0.99)
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
		if s.err != nil {
			// A failed request misses any latency limit.
			out[i] = 1e9
		}
	}
	return out
}

func tally(ss []sample) *report {
	rep := &report{attempted: len(ss)}
	for _, s := range ss {
		if s.err != nil {
			rep.failed++
			if rep.firstErr == nil {
				rep.firstErr = s.err
			}
		}
	}
	return rep
}

// serveStats is the part of /v1/stats the traced run reads.
type serveStats struct {
	Requests             int64 `json:"requests"`
	Overloads            int64 `json:"overloads"`
	Rejected             int64 `json:"rejected"`
	QuotaRejections      int64 `json:"quota_rejections"`
	Coalesced            int64 `json:"coalesced"`
	CacheHits            int64 `json:"cache_hits"`
	CacheMisses          int64 `json:"cache_misses"`
	BatchItems           int64 `json:"batch_items"`
	BatchDeduped         int64 `json:"batch_deduped"`
	ComponentCacheHits   int64 `json:"component_cache_hits"`
	ComponentCacheMisses int64 `json:"component_cache_misses"`
}

// serveTraced steps the offered rate up to about the base capacity, then
// reads the server's own traces and counters for the per-layer view.
func serveTraced(g *loadgen, d time.Duration) (*report, error) {
	steps := []float64{0.5, 1, 1.5, 2, 2.5}
	var all, nominal []sample
	maxRate := 0.0
	for _, f := range steps {
		rate := nominalRate * f
		ss := g.open(rate, d/time.Duration(len(steps)))
		all = append(all, ss...)
		if f == 1 {
			nominal = ss
		}
		lat := latencies(ss)
		// A growing backlog shows as replies finishing later and later
		// after their due time: compare the last quarter with the first.
		q := len(lat) / 4
		limit := ms(latencyLimit)
		growing := median(append([]float64(nil), lat[len(lat)-q:]...)) > 2*median(append([]float64(nil), lat[:q]...))+limit/2
		if quantile(lat, 0.99) <= limit && !growing {
			maxRate = rate
		}
	}
	rep := tally(all)
	if l := lateness(nominal); l > ms(lateLimit) {
		fmt.Fprintf(os.Stderr, "perfbench: serve run invalid: the load generator sent requests up to %.1f ms late (p99), over the %v limit\n", l, lateLimit)
	}
	var st serveStats
	if err := g.svc.get("/v1/stats", &st); err != nil {
		return nil, err
	}
	var tr struct {
		Traces []struct {
			QueueMS float64 `json:"queue_wait_ms"`
			Spans   []struct {
				Name  string `json:"name"`
				DurUS int64  `json:"dur_us"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := g.svc.get("/v1/trace", &tr); err != nil {
		return nil, err
	}
	var queue, solve float64
	for _, t := range tr.Traces {
		queue += t.QueueMS
		for _, sp := range t.Spans {
			if sp.Name == "server.solve" {
				solve += float64(sp.DurUS) / 1000
			}
		}
	}
	var wireTotal float64
	unproven, exact := 0, 0
	for _, s := range all {
		wireTotal += s.wireMS
		if s.exact {
			exact++
			if s.unproven {
				unproven++
			}
		}
	}
	n := float64(len(all))
	share := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.layers = map[string]float64{
		"server.queue_ms":            queue / n,
		"server.solve_ms":            solve / n,
		"server.overhead_ms":         (wireTotal - queue - solve) / n,
		"server.cache_hit_share":     share(st.CacheHits, st.CacheHits+st.CacheMisses),
		"server.coalesced_share":     share(st.Coalesced, st.Requests),
		"server.component_hit_share": share(st.ComponentCacheHits, st.ComponentCacheHits+st.ComponentCacheMisses),
		"server.batch_dedup_share":   share(st.BatchDeduped, st.BatchItems),
		"server.rejected":            float64(st.Overloads + st.Rejected + st.QuotaRejections),
		"loadgen.late_ms":            lateness(nominal),
		"loadgen.max_rate_rps":       maxRate,
		"loadgen.nominal_p50_ms":     quantile(latencies(nominal), 0.5),
		"loadgen.nominal_p99_ms":     quantile(latencies(nominal), 0.99),
		"unproven_share":             share(int64(unproven), int64(exact)),
		"trace.named_share":          (queue + solve) / wireTotal,
		"trace.overhead_share":       0,
	}
	return rep, nil
}
