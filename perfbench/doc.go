// Command perfbench is RAHTM's layered benchmark: one command per workload
// that reports solve time, daemon latency and mapping quality together, and
// splits them by layer.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module from the checkout's sources (the rahtm module
// sits one directory up; internal/serve is reachable because this module's
// path, rahtm/perfbench, is inside rahtm) and keeps the Go build cache, the
// binary, the trace dumps and serve-mix's answer spool under .bench_build/.
// Each run prints a human-readable report and, as its last line, one JSON
// object: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
// --trace 1 the per-layer ones. spread.py runs several seeds and prints
// each metric's quartile spread against its bound.
//
// # Workloads
//
// Each workload runs in its own process at the default GOMAXPROCS. Inputs
// are generated from --seed during set-up and reach the program only
// through Request.Work/Request.Torus or over HTTP. The benchmark times the
// public calls it makes into each layer and reads only what the public
// surface exposes (Result.Stats, the SpanRecorder observer, rahtm.Metrics()
// deltas, the scoped Result.Metrics, the daemon's response headers and its
// /debug/requests board); nothing is instrumented inside the program.
//
//   - solve-halo-4k runs rahtm.Solve at Parallelism 1, round-robin over
//     halo2d 64x64 and halo3d 16x16x16 (4,096 processes) on the 4x4x4x4
//     torus at concentration 16. It is the 4k rung of the scale ladder.
//     Merge is ~80% of its solve time (369,024 beam candidates scored to
//     keep 1,024, with 491,520 symmetry evaluations each), so merge pruning
//     shows here; 16-node leaf cubes run the annealer. halo2d ends in
//     DefaultFallback, and halo3d keeps a beam result that maps 1.31x worse
//     than the ABCDET default order, so merge changes that alter quality
//     move mcl_ratio.
//   - serve-mix runs the internal/serve daemon (Workers 2, MaxParallelism 1)
//     in-process behind a loopback httptest listener, driven by 2
//     connections in a closed loop (callers wait for a mapping before they
//     launch a job). Every block of 20 requests holds 13 cache hits on 8
//     keys primed during set-up, 4 cold solves of unique graphs on 4x4 tori
//     (64 channels: the merge's dense scorer), 2 default/hilbert baseline
//     requests, and 1 request whose 2 ms deadline always degrades it; in
//     every 32nd block one of the 4x4 solves is a unique graph on an 8x8
//     torus (256 channels: the sparse scorer) instead. The seed shuffles
//     each block and draws the graphs. It is the only workload on the
//     request path the solve workloads bypass (JSON decode, graph.Read,
//     Request.Key, cache, queue, encode), it puts cache reads beside cold
//     cache writes, and it is the only one that runs the dense scorer.
//
// # The serve-mix shares
//
// No record of real rahtm-serve traffic exists: the repository holds no
// access log or request trace from a caller. The shares are therefore
// derived from what the latency metrics must follow, at the class
// latencies and CPU costs measured on the 2-vCPU development host (seed 2,
// a 55-s run: p50 and CPU per request sent alone are hit 0.32/0.46 ms,
// 4x4 16.6/16.2 ms, 8x8 261/252 ms, baseline 1.5/2.1 ms, deadline
// 5.0/5.9 ms).
//
//   - Hits: latency_p50_ms must follow the request path, so the p50 must
//     be a hit latency. Every other class is at least 4x slower than the
//     hits, so a hit share h above one half puts the p50 at the hit class's
//     quantile 0.5/h. The p50 should rest on the bulk of the hit
//     distribution, not on its upper tail, the part most exposed to
//     interference from concurrent solves; with the line at the hit p80,
//     0.5/h <= 0.8 needs h >= 0.625, and 13 of 20 (the hit p77) is the
//     smallest share above that in a 20-request block.
//   - The block size, 20, is a choice: it holds both baseline mappers
//     (default and hilbert alternate by block) and one deadline request
//     beside 13 hits, so deadline requests stay a small share (5% of the
//     requests, 1 in 6 of those that reach a worker).
//   - 4x4 solves fill the other 4 places: cold cache writes and the dense
//     scorer the ROADMAP wants to delete, which only this workload runs.
//   - 8x8 solves: latency_tail_ms must follow cold solves, so the ten
//     samples beyond it must be 8x8 solves, which takes at least 11 of
//     them in a run, even one at half the measured throughput (~440 ops/s,
//     1,218 blocks in 55 s). One per 32 blocks gives 38 at the measured
//     rate and 19 at half; one per 64 would give 9.5 at half. Each costs as
//     much CPU as 16 4x4 solves, so a denser share would let them, not the
//     request path and the dense scorer, set throughput and CPU per op;
//     solve-halo-4k already times the sparse scorer.
//
// At these costs the hits are 65% of the requests, 6% of their summed
// latency and 7% of the CPU; 4x4 solves 20%, 73% and 73%; 8x8 solves
// 0.16%, 9% and 9%; baseline requests 10%, 4% and 5%; deadline requests 5%,
// 7% and 7%. Every run prints these shares ("class:" lines, CPU from a
// calibration that sends each class alone after the timed phase) and the
// evidence for both goals ("mix:" lines: the hit quantile at the p50 and
// how many non-hit requests lie at or below it; how many of the samples
// beyond the tail are 8x8 solves).
//
// The solve instances are the paper's fixed patterns: the seed only picks
// where the round-robin starts, so every seed does the same work. A solve
// run repeats whole rounds while the next one still ends within --seconds,
// and always runs at least one.
//
// The paper's NAS BT, SP and CG at 256 processes on the 4x4x4 torus (the
// laptop-scale stand-in for its Mira runs, where exhaustive search over
// 8-node leaf cubes is ~72% of solve time) were a third workload,
// solve-nas-256. On a shared 2-vCPU host whose speed shifts by up to 1.4x
// for minutes at a time, three workloads in the benchmark's time budget
// left 30-s runs, and ten-run spreads of every workload reached 28-35% in
// such stretches, above the largest bound the benchmark may set. Two
// workloads leave room for 55-s runs, which hold two or three rounds of the
// 4k instances. solve-nas-256 went because the 4k rung also
// runs the routing and leaf layers (anneal on 16-node cubes), carries the
// merge work the ROADMAP targets next, and shows halo3d's quality defect;
// exhaustive leaf search still runs on serve-mix's 4-node cubes.
//
// # End-to-end metrics
//
//   - setup_s: the median of at least 21 set-ups, repeated until they took
//     1.5 s together (about 100 on solve-halo-4k, 21 on serve-mix), each
//     generating the inputs and freezing their graphs (solve-halo-4k: plus
//     the default-order reference MCL; serve-mix: plus daemon start and
//     priming the hot keys), at the nominal host speed: the median times
//     the host's speed over the set-ups, from speed samples taken between
//     them at least every 100 ms. The report's set-up line prints the raw
//     repetitions and the time from process start to the first timed op.
//   - throughput_ops_s: completed solves or 200 answers ÷ wall time,
//     pooled over the rounds of a solve run or over serve-mix's windows.
//     A serve-mix window is one cycle of the schedule (32 blocks, 640
//     requests, the cycle's one 8x8 solve in its first block), run to its
//     last answer, so every window asks for the same work; the first
//     window is warm-up and is not timed. A solve round's time is the sum
//     of its solves' wall times. Rounds and windows are pooled, not
//     summarized by a median: the host's speed flips between a fast and a
//     slow state within a run (windows of the same work spread by ±10–20%),
//     and a median over windows jumps from one state to the other when the
//     slow share nears one half, where the pooled ratio moves smoothly
//     with it.
//   - latency_p50_ms: the median latency; on the round-robin workloads, the
//     geometric mean over instances of each instance's median.
//   - latency_tail_ms: the highest percentile with at least ten samples
//     beyond it, printed with that percentile and the sample count, and
//     omitted where none exists. A 55-s solve-halo-4k run has four to six
//     samples, so BENCHMARK.json does not declare it.
//   - cpu_ms_per_op: process user+system CPU (getrusage) ÷ completed ops,
//     pooled over the same rounds or windows. Steal does not count
//     against it, and it shows GC work the idle second vCPU hides from wall
//     time. On serve-mix it includes the in-process clients.
//   - norm_throughput_ops_s, norm_latency_p50_ms, norm_cpu_ms_per_op: the
//     three metrics above at the nominal host speed (see Host speed):
//     throughput divided by the run's host.speed, latency multiplied by
//     it, and CPU time multiplied by host.cpu_speed.
//     BENCHMARK.json declares these three, not the raw ones, because the
//     raw ones measure the host's speed as much as the program's. setup_s
//     is scaled the same way, by the speed over the set-ups.
//   - mcl_ratio: geometric mean over distinct instances of Result.MCL ÷ the
//     MCL of the DefaultMapper (ABCDET-style) mapping. Exact on
//     solve-halo-4k. serve-mix takes a set the seed fixes: its 8 primed
//     keys and the schedule's first 2,048 cold graphs, the ones of them the
//     timed phase did not reach solved through the daemon after it, so the
//     figure repeats exactly for a seed and does not move with throughput.
//   - peak_rss_mb: ru_maxrss of the process when the timed phase ends,
//     less the speed probe's memory (4.2 MB per goroutine), which is
//     resident from the start of the run. The correctness gate and the
//     checks that follow are the benchmark's work, so the peak at exit
//     (about 2 MB higher on serve-mix) is only printed. serve-mix spools its
//     answers to disk during the timed phase and checks them afterwards,
//     so the peak is the daemon's, not a record count that grows with
//     throughput.
//   - fail_ratio: ops failing the correctness gate ÷ ops attempted. Printed,
//     but not declared in BENCHMARK.json, whose metrics must never read 0.
//
// Per instance the report prints RAHTM's MCL, the default order's MCL,
// their ratio and DefaultFallback. halo3d's 1.31 is a known defect, left
// visible as a quality level rather than a failed op: DefaultFallback only
// compares against the node-level identity of the clustered graph, not
// against the process-level default mapping.
//
// # Host speed
//
// The benchmark cannot pin the host's clock, and the 2-vCPU development
// host changed speed by far more than any bound the benchmark may set:
// the same serve-mix code ran at 460–500 ops/s in one stretch of minutes
// and at 760–780 ops/s twenty minutes later, and ten-run sets of it
// spread by 25% of their median. CPU time grew with wall time, so the
// vCPUs ran slower rather than waited: steal stayed under 1%. A fixed
// reference kernel (speed.go), timed in short samples between a
// workload's ops, slowed down with them: over 10-s blocks a 4x4 solve and
// the kernel moved together with a correlation of 0.78 in one stretch and
// 0.98 in another, and the solve-to-kernel time ratio spread by 8% and 2%
// where the solve time alone spread by 12% and 11%. So each run reports
// host.speed, the kernel's nominal unit time over its mean measured one,
// and the norm_* metrics scale the raw ones by it. Stolen time slows wall
// time but not CPU time (in a run with 16% steal, a Parallelism-1 solve
// got 0.80 of a core), so the kernel's CPU time gives a second figure,
// host.cpu_speed, which scales the CPU metric.
//
// The kernel is the benchmark's, not the program's, so a change to the
// program moves the norm_* metrics exactly as much as the raw ones. Its
// memory lies outside the Go heap, so it leaves the program's GC pacing
// alone. It runs on as many goroutines as the workload keeps busy (two on
// serve-mix, one beside the Parallelism-1 solves): a vCPU that had idled
// ran it about twice as slowly as a busy one, a state the workload never
// meets. serve-mix samples it between windows, when both vCPUs have just
// been busy; solve-halo-4k before every solve and after the last; both
// between set-ups, at least every 100 ms, for setup_s. Each sample starts
// with one untimed unit, since the first unit after 0.1 s of idling took
// about 3.5 times as long as the ones after it. The samples cost about 1%
// of a run.
//
// # Correctness gate
//
// Every op is checked after the timed phase, so checking costs the program
// nothing: the placement gives each node exactly conc processes; Result.MCL
// equals rahtm.MCL recomputed on the returned mapping, bit for bit; lp.pivots
// and milp.nodes stay 0 (no CLI or wire request reaches LeafMILP). On the
// solve workloads, each repeat of an instance must repeat its counted work
// (crossKeys) and MCL exactly, and with --trace 1 the traced solve's scoped
// counters must equal the untraced solve's rahtm.Metrics() deltas. On
// serve-mix, a hit must return the mapping of the cold solve that primed
// it, a deadline request must come back degraded, and every other request
// must be solved fresh. The report prints the failures of each check.
//
// # Per-layer metrics (--trace 1)
//
// The timed pass runs with tracing off. On the solve workloads a traced
// --trace 1 run times one untraced round, then solves every instance again
// with a fresh SpanRecorder as Request.Observer and a fresh scope from
// rahtm.WithScope, then, while --seconds allows, times one more untraced
// round; trace.overhead_pct compares the traced round with the untraced
// ones. A layer's busy time is the sum of its spans; core's self
// time is its prepare, fan-out and leaves spans plus the phase time no job
// span covers; rahtm.tail_ms is the Solve wall time outside every phase.
// Values are per round (the sum over instances; ratios pooled), and each
// instance's split is printed. Counts repeat exactly at Parallelism 1, so a
// later change can show where its saving lands even when wall time is
// noisy. On serve-mix the daemon traces every request in its normal
// configuration, so the split comes from each cold solve's Result.Stats and
// scoped Result.Metrics (per cold solve), the X-Rahtm-Queue-Ms header and
// Result.wall_ms; the /debug/requests board adds span timelines for
// trace.coverage_min. Result.wall_ms covers only the pipeline: Solve
// freezes the graph before that clock starts and evaluates MCL and
// hop-bytes after it stops. So that serve.solve_ms and rahtm.tail_ms span
// the whole Solve there too, the benchmark re-times those three steps on
// the same graph and mapping after the timed phase and adds them:
// serve.solve_ms is Result.wall_ms plus them, serve.overhead_ms is the
// client latency minus the queue wait and serve.solve_ms (HTTP, decode,
// graph.Read, key, cache and encode), and rahtm.tail_ms is serve.solve_ms
// minus the cluster, map and merge phase times. Metrics of a layer a workload bypasses read 0 (serve.*
// on the solve workloads; trace.overhead_pct on serve-mix, whose daemon
// always traces). Spans are kept in memory and written to
// .bench_build/runs/ when the run ends. host.speed and host.cpu_speed are
// the timed pass's host speeds (see Host speed). host.steal_pct is the host's
// steal ticks over the timed phase, and the report prints the process's CPU
// share beside it: samples taken while steal ticks run slower.
//
// # Reading the BENCH_7/8 trajectory
//
// BENCH_7.json and BENCH_8.json recorded one row per rung. Their columns map
// onto this benchmark's names as follows (their 4k rung is solve-halo-4k's
// halo2d instance; BENCH_8 ran at GOMAXPROCS 1 with unit halo volumes):
//
//	wall_ms          -> the instance's median latency (quality line), and latency_p50_ms
//	map_ms           -> hiermap.busy_ms plus the map phase's share of core.self_ms
//	merge_ms         -> merge.busy_ms plus the merge phase's share of core.self_ms
//	cluster_ms       -> cluster.busy_ms
//	beam_candidates  -> merge.candidates (beam_pruned = candidates x (1 - merge.kept_ratio))
//	symmetry_evals   -> merge.symmetry_evals
//	stencil_hits     -> routing.stencil_hits
//	anneal_moves     -> hiermap.anneal_moves
//	subproblems(_hit)-> hiermap.solves = subproblems - subproblems_hit; core.subproblem_reuse_ratio
//	delta_fallbacks  -> merge.dense_ratio = delta_fallbacks / (delta_hits + delta_fallbacks)
//	lp_pivots        -> lp.pivots; milp_nodes -> milp.nodes
//	peak_rss_mb      -> peak_rss_mb (now per workload process, not cumulative over rungs)
package main
