package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rahtm"
	"rahtm/internal/serve"
)

// serveWorkload names the daemon workload.
const serveWorkload = "serve-mix"

// reqClass is the kind of a serve-mix request.
type reqClass int

const (
	hit      reqClass = iota // a key primed during set-up
	cold4                    // a unique graph on a 4x4 torus (64 channels: dense merge scorer)
	cold8                    // a unique graph on an 8x8 torus (256 channels: sparse scorer)
	baseline                 // a unique graph for the default or hilbert mapper
	degraded                 // a unique 8x8 graph whose deadline is far below its solve time
	numClasses
)

var classNames = [numClasses]string{"hit", "cold4", "cold8", "baseline", "degraded"}

// block is the serve-mix schedule's repeating unit: every 20 requests hold
// exactly these classes, in an order the seed shuffles, and in every
// cold8Every-th block one cold4 is a cold8 instead. Fixing the mix per
// block keeps each class's share the same for every seed. No record of
// real rahtm-serve traffic exists; doc.go derives these shares from what
// latency_p50_ms and latency_tail_ms must follow, and every run prints the
// evidence (the mix: lines).
var block = []reqClass{
	hit, hit, hit, hit, hit, hit, hit, hit, hit, hit, hit, hit, hit,
	cold4, cold4, cold4, cold4,
	baseline, baseline,
	degraded,
}

const (
	cold8Every     = 32
	hotKeys        = 8
	concentration  = 4
	clients        = 2
	degradeBudget  = 2 // deadline_ms of degraded requests; an 8x8 solve takes ~0.2 s
	serveQueueWait = 10 * time.Second
	// qualityGraphs is how many of the schedule's first cold graphs, beside
	// the primed keys, make up serve-mix's mcl_ratio. The set is fixed by
	// the seed, so the figure does not move with throughput.
	qualityGraphs = 2048
	// wireSampleMax caps how many answers a traced run re-times the wire
	// calls on.
	wireSampleMax = 4096
)

// scheduled is one request of the schedule.
type scheduled struct {
	class reqClass
	hot   int // hot-key index, for hits
	body  []byte
}

// mixSchedule is the serve-mix request stream, a pure function of the seed:
// request i belongs to block i/len(block), whose class order the seed
// shuffles, and its unique body comes from a generator seeded by (seed, i).
// The client builds a body just before sending it, outside the latency
// timer, so the run's length bounds neither the schedule nor its memory.
type mixSchedule struct {
	seed int64
	hot  [][]byte
}

// Generator streams of a mixSchedule.
const (
	streamHot = iota
	streamBlock
	streamBody
	streamCalib
)

func (m *mixSchedule) rng(stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(m.seed*1_000_003 + int64(stream)<<40 + int64(i)))
}

// newMixSchedule generates the hot keys' bodies and returns how long each
// took.
func newMixSchedule(seed int64) (*mixSchedule, []float64) {
	m := &mixSchedule{seed: seed}
	var genMS []float64
	for i := 0; i < hotKeys; i++ {
		t0 := time.Now()
		m.hot = append(m.hot, requestBody(m.rng(streamHot, i), 4, "", 0))
		genMS = append(genMS, ms(time.Since(t0)))
	}
	return m, genMS
}

// classAt returns the class of request i, without generating its body.
func (m *mixSchedule) classAt(i int) reqClass {
	b := i / len(block)
	order := append([]reqClass(nil), block...)
	if b%cold8Every == 0 {
		order[len(order)-4] = cold8 // the last cold4 slot; the shuffle places it
	}
	m.rng(streamBlock, b).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order[i%len(block)]
}

func (m *mixSchedule) at(i int) scheduled {
	s := scheduled{class: m.classAt(i)}
	s.body, s.hot = m.body(s.class, m.rng(streamBody, i), i/len(block))
	return s
}

// body draws a request body of class c from rng; b picks the baseline
// mapper, so both mappers run in every pair of blocks.
func (m *mixSchedule) body(c reqClass, rng *rand.Rand, b int) (body []byte, hot int) {
	switch c {
	case hit:
		hot = rng.Intn(hotKeys)
		return m.hot[hot], hot
	case cold4:
		return requestBody(rng, 4, "", 0), 0
	case cold8:
		return requestBody(rng, 8, "", 0), 0
	case baseline:
		mapper := "default"
		if b%2 == 1 {
			mapper = "hilbert"
		}
		return requestBody(rng, 8, mapper, 0), 0
	default:
		return requestBody(rng, 8, "", degradeBudget), 0
	}
}

// qualityEnd returns the schedule index below which the first
// qualityGraphs cold graphs lie.
func (m *mixSchedule) qualityEnd() int {
	i := 0
	for n := 0; n < qualityGraphs; i++ {
		if c := m.classAt(i); c == cold4 || c == cold8 {
			n++
		}
	}
	return i
}

// inlineGraph writes a seeded communication graph for a side x side torus
// at the workload's concentration: a periodic 2-D halo over the process
// grid with volumes 1..9, plus one random long-range partner per process
// with volume 1..4. Integer volumes keep the text round trip exact.
func inlineGraph(rng *rand.Rand, side int) (graph string, grid []int) {
	g := side * 2 // procs = side*side nodes * 4 = (2*side)^2
	procs := g * g
	b := fmt.Appendf(nil, "comm %d\n", procs)
	edge := func(s, d, vol int) {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(vol), 10)
		b = append(b, '\n')
	}
	id := func(i, j int) int { return ((i+g)%g)*g + (j+g)%g }
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := id(i, j)
			for _, n := range [...]int{id(i, j+1), id(i, j-1), id(i+1, j), id(i-1, j)} {
				edge(v, n, 1+rng.Intn(9))
			}
			if p := rng.Intn(procs); p != v {
				edge(v, p, 1+rng.Intn(4))
			}
		}
	}
	return string(b), []int{g, g}
}

func requestBody(rng *rand.Rand, side int, mapper string, deadlineMS int64) []byte {
	g, grid := inlineGraph(rng, side)
	b, err := json.Marshal(rahtm.Request{
		Graph: g, Grid: grid, Topo: []int{side, side}, Conc: concentration,
		Mapper: mapper, DeadlineMS: deadlineMS,
	})
	if err != nil {
		panic(err) // a Request of plain fields always marshals
	}
	return b
}

// daemon is the in-process rahtm-serve behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	primed []*rahtm.Result // the cold solves of the hot keys
}

func startDaemon(ctx context.Context, hot [][]byte) (*daemon, error) {
	d := &daemon{srv: serve.New(ctx, serve.Config{Workers: 2, MaxParallelism: 1})}
	d.ts = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	for i, body := range hot {
		h, answer := d.post(body)
		res := new(rahtm.Result)
		err := json.Unmarshal(answer, res)
		if h.Status != http.StatusOK || err != nil || res.Cached || res.Degraded {
			d.stop()
			return nil, fmt.Errorf("priming hot key %d: status %d, %v: a fresh, complete solve is needed", i, h.Status, err)
		}
		d.primed = append(d.primed, res)
	}
	return d, nil
}

func (d *daemon) stop() {
	d.ts.Close()
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), serveQueueWait)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every request has been answered; nothing is left to drain
}

// answerHeader describes one exchange of the timed phase.
type answerHeader struct {
	Idx     int64   // schedule index; the schedule regenerates the request
	Lat     int64   // ns, up to the last byte of the answer
	QueueMS float64 // X-Rahtm-Queue-Ms, -1 when absent (cached answers)
	Status  int32   // HTTP status, 0 when the exchange failed
	Len     int32   // answer bytes that follow: the body, or the error
}

// post sends one request and returns its answer undecoded.
func (d *daemon) post(body []byte) (answerHeader, []byte) {
	h := answerHeader{QueueMS: -1}
	start := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return h, []byte(err.Error())
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	h.Lat = int64(time.Since(start))
	if err != nil {
		return h, []byte(err.Error())
	}
	h.Status = int32(resp.StatusCode)
	if q := resp.Header.Get(serve.QueueHeader); q != "" {
		h.QueueMS, _ = strconv.ParseFloat(q, 64)
	}
	return h, answer
}

// spool keeps the timed phase's answers on disk, so the process holds no
// per-request state while it is measured and peak_rss_mb stays the
// daemon's whatever the throughput. The gate replays them afterwards.
type spool struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

func newSpool(dir string) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "serve-answers-*")
	if err != nil {
		return nil, err
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *spool) add(h answerHeader, answer []byte) {
	h.Len = int32(len(answer))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = binary.Write(s.w, binary.LittleEndian, h)
	}
	if s.err == nil {
		_, s.err = s.w.Write(answer)
	}
}

// replay calls fn on every answer in the order they were added. The answer
// slice is reused between calls.
func (s *spool) replay(fn func(answerHeader, []byte) error) error {
	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.err != nil {
		return fmt.Errorf("spooling answers: %w", s.err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(s.f)
	var answer []byte
	for {
		var h answerHeader
		if err := binary.Read(r, binary.LittleEndian, &h); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("replaying answers: %w", err)
		}
		if cap(answer) < int(h.Len) {
			answer = make([]byte, h.Len)
		}
		answer = answer[:h.Len]
		if _, err := io.ReadFull(r, answer); err != nil {
			return fmt.Errorf("replaying answers: %w", err)
		}
		if err := fn(h, answer); err != nil {
			return err
		}
	}
}

// remove closes and deletes the spool file. It is scratch space, read
// back in full before this runs, so neither error changes the result.
func (s *spool) remove() {
	_ = s.f.Close()
	_ = os.Remove(s.f.Name())
}

// windowSpan is how many schedule entries one measurement window holds: a
// whole cycle of cold8Every blocks, so every window asks for the same work
// (the same count of each class, its one cold8 solve among the first
// block's requests) and differs from the others only in the graphs drawn
// and the host's speed.
var windowSpan = cold8Every * len(block)

// serveRefUnits is how many reference-kernel units a speed sample runs
// between two windows: about 1% of a window's time.
const serveRefUnits = 2

// drive runs the closed loop one window at a time: clients connections
// each send the window's next schedule entry once their previous answer is
// in, and every answer is spooled. A window ends when its last answer is
// in; the probe then takes a speed sample while the daemon is idle, and
// the next window starts, while it can still end within budget at the
// pace of the last one. It returns the phase's cost and each window's wall
// and CPU time.
func (d *daemon) drive(m *mixSchedule, budget time.Duration, sp *spool, probe *speedProbe) (phaseUsage, []stretch) {
	var wins []stretch
	settle()
	u0 := readUsage()
	for w := 0; ; w++ {
		probe.sample()
		var next atomic.Int64
		next.Store(int64(w * windowSpan))
		end := int64((w + 1) * windowSpan)
		w0, cpu := time.Now(), processCPU()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < end; i = next.Add(1) - 1 {
					h, answer := d.post(m.at(int(i)).body)
					h.Idx = i
					sp.add(h, answer)
				}
			}()
		}
		wg.Wait()
		last := time.Since(w0)
		wins = append(wins, stretch{wall: last, cpu: processCPU() - cpu})
		if time.Since(u0.wall)+last > budget {
			break
		}
	}
	probe.sample()
	return u0.to(readUsage()), wins
}

// Calibration sizes: how many requests of each class calibrate sends.
var calibCount = [numClasses]int{hit: 256, cold4: 16, cold8: 2, baseline: 16, degraded: 8}

// calibrate sends calibCount fresh requests of each class one at a time,
// on an otherwise idle daemon, and returns each class's process CPU time
// per request in ms. It runs after the timed phase, so it costs the
// measured numbers nothing; the cold bodies come from their own generator
// stream, so none of them is cached yet.
func (d *daemon) calibrate(m *mixSchedule) ([numClasses]float64, error) {
	var cpuMS [numClasses]float64
	settle()
	for c := reqClass(0); c < numClasses; c++ {
		t0 := processCPU()
		for k := 0; k < calibCount[c]; k++ {
			body, _ := m.body(c, m.rng(streamCalib, int(c)<<20+k), k)
			if h, answer := d.post(body); h.Status != http.StatusOK {
				return cpuMS, fmt.Errorf("calibrating %s: status %d: %s", classNames[c], h.Status, answer)
			}
		}
		cpuMS[c] = ms(processCPU()-t0) / float64(calibCount[c])
	}
	return cpuMS, nil
}

// tally runs serve-mix's correctness gate on the answers after the timed
// phase and adds up the numbers they give.
type tally struct {
	rep    *report
	d      *daemon
	mix    *mixSchedule
	mats   *materializer
	qEnd   int // schedule index that ends the quality set
	traced bool

	lats                       []float64
	byClass                    [numClasses][]float64
	rejected, cached, degraded int
	evalMS, freezeMS           []float64
	queue, solve, overhead     []float64
	sums                       layerSums
	quality                    map[int]float64 // schedule index -> RAHTM/default MCL ratio
	wire                       wireSamples
}

// check runs the correctness gate on one answer and adds it to the tally.
// timed is false for the warm-up window's requests and for the quality
// set's graphs solved after the timed phase, which count for the gate and
// mcl_ratio only.
func (t *tally) check(h answerHeader, answer []byte, timed bool) error {
	res := new(rahtm.Result)
	if h.Status != http.StatusOK || json.Unmarshal(answer, res) != nil {
		if h.Status == http.StatusTooManyRequests {
			t.rejected++
		}
		t.rep.gate.record("error")
		return nil
	}
	s := t.mix.at(int(h.Idx))
	w, tor, conc, err := t.mats.get(s.body)
	if err != nil {
		return err
	}
	// The daemon's Solve freezes the graph, then times the pipeline
	// (Result.wall_ms), then evaluates MCL and hop-bytes. The replay redoes
	// the three steps outside that clock on the same graph and mapping.
	f0 := time.Now()
	w.Graph.Freeze()
	fms := ms(time.Since(f0))
	fails, evalMS := checkServe(s, res, t.d.primed, w, tor, conc)
	h0 := time.Now()
	rahtm.HopBytes(tor, w.Graph, res.Mapping)
	outside := fms + evalMS + ms(time.Since(h0))
	t.rep.gate.record(fails...)
	if (s.class == cold4 || s.class == cold8) && int(h.Idx) < t.qEnd {
		q, err := t.mats.quality(w, tor, conc, res.MCL)
		if err != nil {
			return err
		}
		t.quality[int(h.Idx)] = q
	}
	if !timed {
		return nil
	}
	lat := float64(h.Lat) / float64(time.Millisecond)
	t.lats = append(t.lats, lat)
	t.byClass[s.class] = append(t.byClass[s.class], lat)
	t.evalMS = append(t.evalMS, evalMS)
	if t.traced && len(t.wire.decode) < wireSampleMax {
		if err := t.wire.add(s.body, res); err != nil {
			return err
		}
	}
	if res.Degraded {
		t.degraded++
	}
	if res.Cached {
		t.cached++
		return nil
	}
	solve := res.WallMS + outside
	t.queue = append(t.queue, h.QueueMS)
	t.solve = append(t.solve, solve)
	t.overhead = append(t.overhead, lat-h.QueueMS-solve)
	if s.class != cold4 && s.class != cold8 {
		return nil
	}
	t.freezeMS = append(t.freezeMS, fms)
	st := res.Stats
	t.sums.addStats(res)
	t.sums.clusterMS += ms(st.ClusterTime)
	t.sums.hiermapMS += ms(st.MapWorkTime)
	t.sums.mergeMS += ms(st.MergeWorkTime)
	t.sums.selfMS += ms(st.MapTime + st.MergeTime - st.MapWorkTime - st.MergeWorkTime)
	t.sums.tailMS += solve - ms(st.ClusterTime+st.MapTime+st.MergeTime)
	return nil
}

// runServe is the serve-mix workload.
func runServe(ctx context.Context, rep *report, cfg config, processStart time.Time) error {
	rep.gate = newGate("error", "placement", "mcl_exact", "hit_matches_prime",
		"deadline_degrades", "cold_is_solved", "lp_milp_zero")
	// The probe comes first, so its memory is resident for the whole run
	// and peak_rss_mb can leave it out exactly.
	probe, err := newSpeedProbe(runtime.GOMAXPROCS(0), serveRefUnits)
	if err != nil {
		return err
	}
	defer probe.free()
	var d *daemon
	var mix *mixSchedule
	var setups, gens, builds []float64
	for moreSetups(setups) {
		if d != nil {
			d.stop()
		}
		probe.sampleEvery(setupSampleEvery)
		settle()
		b0 := rahtm.Metrics().Counter("graph.build")
		t0 := time.Now()
		var gen []float64
		mix, gen = newMixSchedule(cfg.seed)
		var err error
		if d, err = startDaemon(ctx, mix.hot); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, median(gen))
		builds = append(builds, float64(rahtm.Metrics().Counter("graph.build")-b0))
	}
	defer d.stop()
	probe.sample()
	setupSpeed := probe.take()
	reportSetup(rep, setups, processStart)

	sp, err := newSpool(cfg.outDir)
	if err != nil {
		return err
	}
	defer sp.remove()
	start := rahtm.Metrics()
	budget := time.Duration(cfg.seconds) * time.Second
	use, win := d.drive(mix, budget, sp, probe)
	peak := peakRSSMB()
	// The first window warms the daemon up: its requests are checked but
	// not timed, and the speed samples around it do not count.
	if len(win) < 2 {
		return fmt.Errorf("the timed phase held %d windows of %d requests; it needs a warm-up window and one more: give it more --seconds",
			len(win), windowSpan)
	}
	win, probe.samples = win[1:], probe.samples[1:]
	lo := windowSpan
	reportHost(rep, "timed pass", use)
	total := rahtm.Metrics().Sub(start).Counters
	calibStart := time.Now()
	calib, err := d.calibrate(mix)
	if err != nil {
		return err
	}

	// The correctness gate and every derived number run after the timed
	// phase, so they cost the daemon nothing.
	t := &tally{rep: rep, d: d, mix: mix, mats: newMaterializer(mix.hot), qEnd: mix.qualityEnd(),
		traced: cfg.traced, quality: map[int]float64{}}
	completed := 0
	replayStart := time.Now()
	err = sp.replay(func(h answerHeader, answer []byte) error {
		timed := int(h.Idx) >= lo
		if h.Status == http.StatusOK {
			completed++
			if timed {
				win[(int(h.Idx)-lo)/windowSpan].ops++
			}
		}
		return t.check(h, answer, timed)
	})
	if err != nil {
		return err
	}
	replayed := time.Now()
	late := 0 // quality-set graphs the timed phase did not reach
	for i := 0; i < t.qEnd; i++ {
		if _, done := t.quality[i]; done {
			continue
		}
		if c := mix.classAt(i); c != cold4 && c != cold8 {
			continue
		}
		h, answer := d.post(mix.at(i).body)
		h.Idx = int64(i)
		if err := t.check(h, answer, false); err != nil {
			return err
		}
		late++
	}
	rep.printf("after the timed phase: calibration %.1f s, replay %.1f s, %d late quality solves %.1f s",
		replayStart.Sub(calibStart).Seconds(), replayed.Sub(replayStart).Seconds(), late, time.Since(replayed).Seconds())
	ratios := make([]float64, 0, len(t.quality)+hotKeys)
	for i := 0; i < t.qEnd; i++ { // in schedule order, so the geomean repeats bit for bit
		if q, ok := t.quality[i]; ok {
			ratios = append(ratios, q)
		}
	}
	for i, body := range mix.hot {
		w, tor, conc, err := t.mats.get(body)
		if err != nil {
			return err
		}
		q, err := t.mats.quality(w, tor, conc, d.primed[i].MCL)
		if err != nil {
			return err
		}
		ratios = append(ratios, q)
	}

	e := rep.endToEnd
	rate, cost := pooledRates(win)
	e.set("throughput_ops_s", rate, "ops/s")
	e.note("throughput_ops_s", fmt.Sprintf("over %d windows of %d requests after warm-up", len(win), windowSpan))
	reportWindows(rep, win)
	e.set("latency_p50_ms", median(t.lats), "ms")
	e.note("latency_p50_ms", fmt.Sprintf("median of %d requests", len(t.lats)))
	setTail(rep, t.lats)
	e.set("cpu_ms_per_op", cost, "ms")
	e.note("cpu_ms_per_op", fmt.Sprintf("over the same %d windows", len(win)))
	probe.report(rep)
	setNorm(e, probe.speed(), probe.cpuSpeed(), median(setups), setupSpeed)
	e.set("mcl_ratio", geomean(ratios), "ratio")
	e.note("mcl_ratio", fmt.Sprintf("geomean over the %d primed keys and the schedule's first %d cold graphs (%d solved after the timed phase)",
		hotKeys, len(t.quality), late))
	setPeakRSS(e, peak, probe)
	e.set("fail_ratio", rep.gate.failRatio(), "ratio")
	reportMix(rep, t, calib)

	l := rep.layer
	sums := &t.sums
	sums.setPer(l, float64(max(sums.solves, 1)))
	l.note("hiermap.busy_ms", fmt.Sprintf("per cold solve, over %d", sums.solves))
	l.set("routing.mcl_eval_ms", median(t.evalMS), "ms")
	l.set("routing.stencil_builds", float64(total["routing.stencil.builds"]), "count")
	l.set("workload.gen_ms", median(gens), "ms")
	l.set("graph.freeze_ms", median(t.freezeMS), "ms")
	l.set("graph.builds", median(builds), "count")
	l.set("serve.hit_p50_ms", median(t.byClass[hit]), "ms")
	l.set("serve.cold_p50_ms", median(append(append([]float64(nil), t.byClass[cold4]...), t.byClass[cold8]...)), "ms")
	l.set("serve.baseline_p50_ms", median(t.byClass[baseline]), "ms")
	l.set("serve.degraded_p50_ms", median(t.byClass[degraded]), "ms")
	l.set("serve.queue_ms", median(t.queue), "ms")
	l.set("serve.solve_ms", median(t.solve), "ms")
	l.set("serve.overhead_ms", median(t.overhead), "ms")
	l.set("serve.cache_hit_ratio", ratio(float64(t.cached), float64(len(t.lats))), "ratio")
	l.set("serve.degraded_ratio", ratio(float64(t.degraded), float64(len(t.lats))), "ratio")
	l.set("serve.rejected", float64(t.rejected), "count")
	l.set("lp.pivots", float64(total["lp.pivots"]), "count")
	l.set("milp.nodes", float64(total["milp.nodes"]), "count")
	setGC(l, use, completed)
	l.set("trace.overhead_pct", 0, "%")
	l.note("trace.overhead_pct", "the daemon always traces: no untraced baseline")
	l.set("host.steal_pct", use.stealPct(), "%")
	l.set("host.speed", probe.speed(), "ratio")
	l.set("host.cpu_speed", probe.cpuSpeed(), "ratio")
	if !cfg.traced {
		return nil
	}
	for i, v := range t.wire.medians() {
		l.set(wireNames[i], v, "ms")
	}
	cov, err := d.boardCoverage(rep)
	if err != nil {
		return err
	}
	l.set("trace.coverage_min", cov, "ratio")
	l.note("trace.coverage_min", "over the /debug/requests board of slowest traces")
	return nil
}

// reportWindows prints how the windows' rates spread, the evidence of how
// the host's speed moved during the run.
func reportWindows(rep *report, win []stretch) {
	rates := make([]float64, len(win))
	for k, w := range win {
		rates[k] = ratio(float64(w.ops), w.wall.Seconds())
	}
	s := sorted(rates)
	rep.printf("windows: %d of %d requests after a warm-up window; ops/s min %.1f p25 %.1f median %.1f p75 %.1f max %.1f",
		len(win), windowSpan, s[0], s[len(s)/4], median(s), s[len(s)*3/4], s[len(s)-1])
}

// reportMix prints, per class, its share of the timed phase's requests,
// of their summed latency (wall) and of the process CPU they cost (from
// the calibrated CPU per request), and the evidence that the two latency
// metrics follow the classes they should: the p50 lies in the hit class,
// and the tail rests on cold 8x8 solves.
func reportMix(rep *report, t *tally, calib [numClasses]float64) {
	var n, wall, cpu float64
	var sums [numClasses]float64
	for c := range t.byClass {
		for _, x := range t.byClass[c] {
			sums[c] += x
		}
		n += float64(len(t.byClass[c]))
		wall += sums[c]
		cpu += float64(len(t.byClass[c])) * calib[c]
	}
	for c := reqClass(0); c < numClasses; c++ {
		k := float64(len(t.byClass[c]))
		rep.printf("class: %-8s %6d requests (%5.2f%%), p50 %8.3f ms, %7.3f cpu ms/request alone; share of wall %5.2f%%, of cpu %5.2f%%",
			classNames[c], len(t.byClass[c]), 100*ratio(k, n), median(t.byClass[c]), calib[c],
			100*ratio(sums[c], wall), 100*ratio(k*calib[c], cpu))
	}
	p50 := median(t.lats)
	var hitsBelow, othersBelow int
	for c := range t.byClass {
		for _, x := range t.byClass[c] {
			if x > p50 {
				continue
			}
			if reqClass(c) == hit {
				hitsBelow++
			} else {
				othersBelow++
			}
		}
	}
	rep.printf("mix: latency_p50_ms %.3f ms is the hit class's p%.1f; %d non-hit requests at or below it",
		p50, 100*ratio(float64(hitsBelow), float64(len(t.byClass[hit]))), othersBelow)
	pct, v, ok := tail(t.lats)
	if !ok {
		return
	}
	beyond8 := 0
	for _, x := range t.byClass[cold8] {
		if x > v {
			beyond8++
		}
	}
	rep.printf("mix: latency_tail_ms p%.3f %.1f ms; %d of the %d samples beyond it are cold8 solves (%d cold8 requests)",
		pct, v, beyond8, tailBeyond, len(t.byClass[cold8]))
}

// checkServe runs the correctness gate on one 200 answer to s, whose
// request materializes to w on tor at conc, and returns the checks it
// failed and how long the MCL recomputation took.
func checkServe(s scheduled, res *rahtm.Result, primed []*rahtm.Result, w *rahtm.Workload, tor *rahtm.Torus, conc int) (fails []string, evalMS float64) {
	if !placementOK(res.Mapping, w.Procs(), tor.N(), conc) {
		fails = append(fails, "placement")
	}
	t0 := time.Now()
	mcl := rahtm.MCL(tor, w.Graph, res.Mapping)
	evalMS = ms(time.Since(t0))
	if math.Float64bits(mcl) != math.Float64bits(res.MCL) {
		fails = append(fails, "mcl_exact")
	}
	switch s.class {
	case hit:
		if !res.Cached || !sameMapping(res.Mapping, primed[s.hot].Mapping) {
			fails = append(fails, "hit_matches_prime")
		}
	case degraded:
		if !res.Degraded {
			fails = append(fails, "deadline_degrades")
		}
	default:
		if res.Cached || res.Degraded {
			fails = append(fails, "cold_is_solved")
		}
	}
	if res.Metrics["lp.pivots"] != 0 || res.Metrics["milp.nodes"] != 0 {
		fails = append(fails, "lp_milp_zero")
	}
	return fails, evalMS
}

func sameMapping(a, b rahtm.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// materializer decodes request bodies into workloads for the correctness
// gate and the quality reference. Only the hot keys' bodies, which recur,
// stay decoded; every other body occurs once.
type materializer struct {
	hot map[string]*rahtm.Request
}

func newMaterializer(hot [][]byte) *materializer {
	m := &materializer{hot: map[string]*rahtm.Request{}}
	for _, b := range hot {
		m.hot[string(b)] = nil
	}
	return m
}

func (m *materializer) get(body []byte) (*rahtm.Workload, *rahtm.Torus, int, error) {
	req, isHot := m.hot[string(body)]
	if req == nil {
		req = new(rahtm.Request)
		if err := json.Unmarshal(body, req); err != nil {
			return nil, nil, 0, err
		}
		if isHot {
			m.hot[string(body)] = req
		}
	}
	w, t, err := req.Materialize()
	return w, t, req.Conc, err
}

// quality returns a RAHTM result's MCL over the default-order MCL of the
// same instance.
func (m *materializer) quality(w *rahtm.Workload, t *rahtm.Torus, conc int, mcl float64) (float64, error) {
	ref, err := rahtm.Solve(context.Background(), rahtm.Request{Work: w, Torus: t, Conc: conc, Mapper: "default"})
	if err != nil {
		return 0, err
	}
	return mcl / ref.MCL, nil
}

// boardCoverage reads the daemon's /debug/requests board, keeps it for the
// trace file, and returns the lowest map/merge phase coverage over the
// traces that carry job spans.
func (d *daemon) boardCoverage(rep *report) (float64, error) {
	resp, err := d.client.Get(d.ts.URL + "/debug/requests")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var board struct {
		Slowest []struct {
			TraceID string       `json:"trace_id"`
			WallMS  float64      `json:"wall_ms"`
			Cached  bool         `json:"cached"`
			Spans   []rahtm.Span `json:"spans"`
		} `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&board); err != nil {
		return 0, fmt.Errorf("decoding /debug/requests: %w", err)
	}
	cov, traces := 1.0, 0
	for _, tr := range board.Slowest {
		rep.traces = append(rep.traces, tr)
		if len(tr.Spans) == 0 {
			continue
		}
		traces++
		cov = min(cov, splitSpans(tr.Spans, time.Duration(tr.WallMS*float64(time.Millisecond))).coverageMin)
	}
	if traces == 0 {
		return 0, nil
	}
	return cov, nil
}
