/**
 * @file
 * gmx_perfbench: the alignment service's end-to-end benchmark.
 *
 *   gmx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 [--commit <id>] [--trace-dir <dir>]
 *   gmx_perfbench --describe
 *
 * --trace 0 measures the end-to-end metrics with engine tracing off.
 * --trace 1 measures the per-layer metrics: an untraced and a traced
 * window of the same load (their rates give the tracing overhead), then
 * single-threaded replays of the workload's inputs through each layer.
 * Both check every answer and print the provenance, a readable report
 * and, as the last line, one JSON result object. The exit code is
 * nonzero on a wrong answer or a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <type_traits>

#include "check.hh"
#include "kernel/simd/bpm_simd.hh"
#include "layers.hh"
#include "load.hh"
#include "report.hh"
#include "stats.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string commit = "unknown";
    std::string trace_dir = ".bench_build/traces";
    bool describe = false;
};

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--describe") {
            a.describe = true;
            continue;
        }
        if (i + 1 >= argc)
            return std::nullopt;
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v);
        else if (flag == "--trace")
            a.trace = std::atoi(v);
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--trace-dir")
            a.trace_dir = v;
        else
            return std::nullopt;
    }
    if (!a.describe &&
        (a.workload.empty() || !(a.seconds > 0) || a.trace < 0 || a.trace > 1))
        return std::nullopt;
    return a;
}

/** What a run hands to the result line. */
struct Outcome
{
    std::map<std::string, double> values;
    u64 attempted = 0;
    u64 failed = 0;
    u64 wrong = 0;
};

void
line(const char *name, double value, const char *unit, const std::string &note = "")
{
    std::printf("  %-36s %14.6g %-6s %s\n", name, value, unit, note.c_str());
}

/** Fold a window and the check into the outcome; print the basics. */
void
account(Outcome &o, const Window &win)
{
    o.attempted += win.attempted;
    o.failed += win.failed + win.wrong;
    o.wrong += win.wrong;
    if (!win.first_error.empty())
        std::printf("  first failure: %s\n", win.first_error.c_str());
}

void
accountCheck(Outcome &o, const CheckReport &rep)
{
    o.attempted += rep.checked;
    o.failed += rep.wrong;
    o.wrong += rep.wrong;
    std::printf("  check: %llu answers compared with references, %llu wrong%s%s\n",
                static_cast<unsigned long long>(rep.checked),
                static_cast<unsigned long long>(rep.wrong),
                rep.first_error.empty() ? "" : "; first: ",
                rep.first_error.c_str());
}

constexpr int kSetupReps = 5;

Outcome
timedRun(const Workload &w, const Args &a)
{
    Ledger shorts(w.pool.size()), longs(std::max<size_t>(1, w.longs.size()));
    std::vector<double> setups;
    std::optional<Window> win;
    if (w.wire) {
        std::optional<WireRig> rig;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            rig.emplace();
            setups.push_back(setupWire(w, false, *rig));
        }
        win = runWire(*rig, w, a.seconds, a.seed, shorts, nullptr);
    } else {
        std::optional<InprocRig> rig;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            rig.emplace();
            setups.push_back(setupInproc(w, false, *rig));
        }
        win = runInproc(*rig, w, a.seconds, a.seed, shorts, longs, nullptr);
    }

    Outcome o;
    account(o, *win);
    accountCheck(o, checkAnswers(w, shorts, longs));
    const u64 n = win->latencySamples();
    o.values["pairs_per_s"] = win->pairsPerSecond();
    o.values["latency_p50_ms"] = win->latencyMs(50);
    o.values["setup_s"] = median(setups);
    o.values["peak_rss_mb"] = peakRssMb();

    std::printf("end to end (%s, %.3g s window, engine tracing off):\n",
                w.name.c_str(), a.seconds);
    line("pairs_per_s", o.values["pairs_per_s"], "1/s",
         std::to_string(win->okInWindow()) + " closed-loop pairs Ok in window");
    std::string subs;
    for (u64 c : win->ok_per_sub) {
        subs += ' ';
        subs += std::to_string(c);
    }
    std::printf("  closed-loop pairs Ok per %zu-th of the window:%s\n",
                Window::kSubWindows, subs.c_str());
    line("latency_p50_ms", o.values["latency_p50_ms"], "ms",
         "n=" + std::to_string(n));
    char tail[128];
    std::snprintf(tail, sizeof(tail),
                  "n=%llu; highest percentile with >=10 beyond: p%g",
                  static_cast<unsigned long long>(n), tailPercentile(n));
    line("latency_p99_ms", win->latencyMs(99), "ms", tail);
    line("setup_s", o.values["setup_s"], "s",
         "median of " + std::to_string(kSetupReps) + " set-ups");
    line("peak_rss_mb", o.values["peak_rss_mb"], "MB");
    const Ratio err{static_cast<double>(o.failed),
                    static_cast<double>(o.attempted)};
    line("error_rate", err.value(), "ratio", err.str());
    if (!w.longs.empty()) {
        line("long_latency_p50_ms", median(win->long_latency_ms), "ms",
             "n=" + std::to_string(win->long_latency_ms.size()));
        line("sched_lag_ms_p99", percentile(win->sched_lag_ms, 99), "ms",
             "n=" + std::to_string(win->sched_lag_ms.size()));
    }
    return o;
}

std::vector<gmx::engine::Engine *>
enginesOf(InprocRig &r)
{
    return {r.engine.get()};
}

std::vector<gmx::engine::Engine *>
enginesOf(WireRig &r)
{
    std::vector<gmx::engine::Engine *> out;
    for (auto &e : r.engines)
        out.push_back(e.get());
    return out;
}

/** Counter totals over a set of engines at one instant. */
struct EngineTotals
{
    unsigned workers = 0;
    u64 submitted = 0, completed = 0, microbatches = 0, batched_pairs = 0,
        filter_batches = 0, filter_batched_pairs = 0, downgraded = 0;
    u64 mem_reserved_peak = 0, arena_peak = 0; // gauges: max over engines
    std::array<u64, gmx::engine::kTierCount> hits{}, attempts{}, cells{};
    std::array<double, gmx::engine::kTierCount> setup_us{}, kernel_us{},
        work_us{};

    explicit EngineTotals(const std::vector<gmx::engine::Engine *> &engines)
    {
        for (const auto *e : engines) {
            const auto s = e->metrics();
            workers += e->workerCount();
            submitted += s.submitted;
            completed += s.completed;
            microbatches += s.microbatches;
            batched_pairs += s.batched_pairs;
            filter_batches += s.filter_batches;
            filter_batched_pairs += s.filter_batched_pairs;
            downgraded += s.downgraded;
            mem_reserved_peak = std::max(mem_reserved_peak, s.mem_reserved_peak);
            arena_peak = std::max(arena_peak, s.arena_peak_bytes);
            for (unsigned t = 0; t < gmx::engine::kTierCount; ++t) {
                hits[t] += s.tier_hits[t];
                attempts[t] += s.tiers[t].attempts;
                cells[t] += s.tiers[t].cells;
                setup_us[t] += s.tiers[t].setup_us;
                kernel_us[t] += s.tiers[t].kernel_us;
                work_us[t] += s.tiers[t].work_us;
            }
        }
    }

    /** Counters since @p before; gauges stay as they are now. */
    EngineTotals since(const EngineTotals &before) const
    {
        EngineTotals d = *this;
        d.submitted -= before.submitted;
        d.completed -= before.completed;
        d.microbatches -= before.microbatches;
        d.batched_pairs -= before.batched_pairs;
        d.filter_batches -= before.filter_batches;
        d.filter_batched_pairs -= before.filter_batched_pairs;
        d.downgraded -= before.downgraded;
        for (unsigned t = 0; t < gmx::engine::kTierCount; ++t) {
            d.hits[t] -= before.hits[t];
            d.attempts[t] -= before.attempts[t];
            d.cells[t] -= before.cells[t];
            d.setup_us[t] -= before.setup_us[t];
            d.kernel_us[t] -= before.kernel_us[t];
            d.work_us[t] -= before.work_us[t];
        }
        return d;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return ratio(sum, static_cast<double>(v.size()));
}

/** What the traced window leaves behind for the layer metrics. */
struct TracedWindow
{
    std::optional<Window> win;
    std::optional<EngineTotals> delta; //!< engine counters over the window
    double wall_s = 0;
    i64 start_ns = 0;
    std::vector<EngineTrace> traces; //!< one per engine
    gmx::serve::ServeSnapshot serve_before, serve_after;
};

/** Set up a traced rig, run @p run on it, and collect its counters. */
template <typename Rig, typename Setup, typename Run>
TracedWindow
tracedWindow(Setup setup, Run run)
{
    Rig rig;
    setup(rig);
    TracedWindow t;
    const EngineTotals before(enginesOf(rig));
    if constexpr (std::is_same_v<Rig, WireRig>)
        t.serve_before = rig.server->serveSnapshot();
    t.start_ns = nowNs();
    t.win = run(rig);
    t.wall_s = static_cast<double>(nowNs() - t.start_ns) / 1e9;
    t.delta = EngineTotals(enginesOf(rig)).since(before);
    if constexpr (std::is_same_v<Rig, WireRig>)
        t.serve_after = rig.server->serveSnapshot();
    for (const auto *e : enginesOf(rig))
        t.traces.push_back(engineTrace(e->trace()));
    return t;
}

void
writeSpanFile(const Args &a, const Workload &w, const std::vector<Span> &spans)
{
    std::error_code ec;
    std::filesystem::create_directories(a.trace_dir, ec);
    const std::string path = a.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (writeSpans(path, spans))
        std::printf("  spans: %zu written to %s\n", spans.size(), path.c_str());
    else
        std::printf("  spans: could not write %s\n", path.c_str());
}

using Metrics = std::map<std::string, double>;

/**
 * engine.* and cascade.*: counters over the window, waits from traces.
 * Returns each traced request's enqueue -> complete time (µs).
 */
std::vector<double>
engineLayerMetrics(const TracedWindow &tw, Metrics &v)
{
    const EngineTotals &d = *tw.delta;
    std::vector<double> queue_us, e2e_us;
    for (const auto &tr : tw.traces)
        for (const auto &t : tr.times)
            if (t.whole() && t.enqueue >= tw.start_ns) {
                queue_us.push_back(static_cast<double>(t.dispatch - t.enqueue) / 1e3);
                e2e_us.push_back(static_cast<double>(t.complete - t.enqueue) / 1e3);
            }
    double busy_us = 0, attempt_us = 0;
    for (unsigned t = 0; t < gmx::engine::kTierCount; ++t) {
        busy_us += d.setup_us[t] + d.kernel_us[t];
        attempt_us += d.work_us[t];
    }
    const double completed = static_cast<double>(d.completed);
    v["engine.queue_wait_us_p50"] = percentile(queue_us, 50);
    v["engine.queue_wait_us_p99"] = percentile(queue_us, 99);
    v["engine.overhead_us"] = mean(e2e_us) - ratio(attempt_us, completed);
    v["engine.worker_busy_frac"] =
        ratio(busy_us, d.workers * tw.wall_s * 1e6);
    v["engine.microbatch_pairs"] = ratio(d.batched_pairs, d.microbatches);
    v["engine.lane_occupancy"] =
        ratio(d.filter_batched_pairs,
              static_cast<double>(gmx::simd::kBatchLanes * d.filter_batches));
    v["engine.lane_packed_frac"] = ratio(d.filter_batched_pairs, completed);
    v["engine.mem_reserved_peak_bytes"] = static_cast<double>(d.mem_reserved_peak);
    v["engine.arena_peak_bytes"] = static_cast<double>(d.arena_peak);
    v["engine.downgraded"] = static_cast<double>(d.downgraded);
    std::printf("  engine trace: %zu requests in the window\n", queue_us.size());

    using gmx::engine::Tier;
    const std::pair<const char *, Tier> tiers[] = {{"filter", Tier::Filter},
                                                    {"banded", Tier::Banded},
                                                    {"full", Tier::Full},
                                                    {"streamed", Tier::Streamed}};
    for (const auto &[name, tier] : tiers) {
        const unsigned t = static_cast<unsigned>(tier);
        const std::string p = std::string("cascade.") + name + ".";
        v[p + "attempts_per_req"] = ratio(d.attempts[t], completed);
        v[p + "useful_ratio"] = ratio(d.hits[t], d.attempts[t]);
        v[p + "setup_us_per_req"] = ratio(d.setup_us[t], completed);
        v[p + "kernel_us_per_req"] = ratio(d.kernel_us[t], completed);
        v[p + "gcups"] = ratio(d.cells[t], d.kernel_us[t] * 1e3);
    }
    return e2e_us;
}

/** In-process spans: the benchmark's own joined with the engine's
 *  events for the same request; returns them for writing out. */
std::vector<Span>
inprocSpanMetrics(const TracedWindow &tw, const SpanLog &spans, Metrics &v)
{
    const EngineTrace &tr = tw.traces.front();
    std::vector<Span> kept;
    std::vector<double> submit_us;
    for (const Span &s : spans.spans()) {
        const EngineTimes *t = tr.find(s.req);
        if (!t || !t->whole())
            continue;
        kept.push_back(s);
        if (s.layer == Layer::Submit)
            submit_us.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
        if (s.layer != Layer::Request)
            continue;
        kept.push_back({s.req, Layer::Queue, t->enqueue, t->dispatch});
        kept.push_back({s.req, Layer::Service, t->dispatch, t->complete});
        kept.push_back({s.req, Layer::ClientWait, t->complete, s.t1_ns});
        if (t->first_attempt >= 0)
            kept.push_back({s.req, Layer::Cascade, t->first_attempt, t->complete});
    }
    v["engine.submit_us"] = median(submit_us);

    const SelfTimes st = selfTimes(kept);
    double request_us = 0, covered_us = 0;
    for (const Span &s : kept)
        if (s.layer == Layer::Request)
            request_us += static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
    std::printf("  self time per request (span minus its children):\n");
    for (size_t l = 0; l < kLayerCount; ++l) {
        if (!st.spans[l])
            continue;
        const Layer layer = static_cast<Layer>(l);
        std::printf("    %-20s %10.3f us  (%llu spans)\n", layerName(layer),
                    st.meanUs(layer),
                    static_cast<unsigned long long>(st.spans[l]));
        if (layer != Layer::Request)
            covered_us += st.sum_us[l];
    }
    v["trace.coverage"] = ratio(covered_us, request_us);
    return kept;
}

/** Wire spans and the serve layer's counters over the window;
 *  @p e2e_us is the engines' enqueue -> complete times. */
void
wireSpanMetrics(const TracedWindow &tw, const SpanLog &spans,
                const std::vector<double> &e2e_us, Metrics &v)
{
    std::vector<double> send_us, request_us;
    for (const Span &s : spans.spans()) {
        const double us = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
        (s.layer == Layer::Request ? request_us : send_us).push_back(us);
    }
    const auto &b = tw.serve_before, &e = tw.serve_after;
    const double requests = static_cast<double>(e.requests - b.requests);

    // Wire requests cannot be matched to engine requests, so the engine's
    // part is its mean enqueue -> complete time weighted by the share of
    // requests that reached an engine (router cache misses).
    const double engine_share = ratio(tw.delta->submitted, requests);
    double request_total = 0, covered = 0;
    for (double us : request_us)
        request_total += us;
    for (double us : send_us)
        covered += us;
    covered += engine_share * mean(e2e_us) * static_cast<double>(request_us.size());
    v["trace.coverage"] = ratio(covered, request_total);
    v["serve.client.send_us"] = median(send_us);
    v["serve.front_door_us"] = median(request_us) - median(e2e_us);

    const Ratio hits{static_cast<double>(e.cache_hits + e.cache_coalesced -
                                         b.cache_hits - b.cache_coalesced),
                     static_cast<double>(e.cache_hits + e.cache_coalesced +
                                         e.cache_misses - b.cache_hits -
                                         b.cache_coalesced - b.cache_misses)};
    v["serve.router.cache_hit_ratio"] = hits.value();
    std::printf("  serve.router.cache_hit_ratio = %s lookups; engine share %.4f\n",
                hits.str().c_str(), engine_share);
    v["serve.router.cache_evictions"] =
        static_cast<double>(e.cache_evictions - b.cache_evictions);
    u64 shed = 0;
    for (unsigned p = 0; p < gmx::serve::kPriorityCount; ++p)
        shed += e.shed_by_priority[p] - b.shed_by_priority[p] +
                e.brownout_shed[p] - b.brownout_shed[p];
    v["serve.shed"] = static_cast<double>(shed);
    v["serve.throttled"] = static_cast<double>(e.quota_throttled - b.quota_throttled);
    v["serve.bytes_per_req"] = ratio(
        static_cast<double>(e.bytes_in + e.bytes_out - b.bytes_in - b.bytes_out),
        requests);
}

/** Single-threaded replays of the workload's inputs, layer by layer. */
void
replayMetrics(const Workload &w, const Ledger &answers, double seconds,
              Metrics &v)
{
    const ProtocolCost pc = protocolCost(w, answers, 0.04 * seconds);
    v["serve.protocol.encode_ns"] = pc.encode_ns;
    v["serve.protocol.decode_ns"] = pc.decode_ns;
    if (!w.wire)
        v["serve.bytes_per_req"] = pc.bytes_per_req;
    for (const char *k : kReplayKernels) {
        const std::string p = std::string("kernel.") + k + ".";
        v[p + "dist_gcups"] = kernelGcups(w, k, false, 0.035 * seconds);
        v[p + "cigar_gcups"] = kernelGcups(w, k, true, 0.035 * seconds);
    }
    v["kernel.batch.gcups"] = batchGcups(w, 0.03 * seconds);
    const CascadeReplay cr = replayCascade(w, w.pool.size(), 0.05 * seconds);
    v["kernel.arena.allocs_per_req"] = ratio(cr.arena_allocs, cr.requests);
}

Outcome
tracedRun(const Workload &w, const Args &a)
{
    const double S = a.seconds;
    Ledger shorts(w.pool.size()), longs(std::max<size_t>(1, w.longs.size()));
    SpanLog spans(size_t{1} << 20);
    std::optional<Window> plain;
    TracedWindow tw;

    // An untraced and a traced window of the same load (a quarter and
    // 35% of the run): the rate difference is the tracing overhead. The
    // rest of the run goes to the replays.
    if (w.wire) {
        {
            WireRig rig;
            setupWire(w, false, rig);
            plain = runWire(rig, w, 0.25 * S, a.seed, shorts, nullptr);
        }
        tw = tracedWindow<WireRig>(
            [&](WireRig &r) { setupWire(w, true, r); },
            [&](WireRig &r) {
                return runWire(r, w, 0.35 * S, a.seed + 1, shorts, &spans);
            });
    } else {
        {
            InprocRig rig;
            setupInproc(w, false, rig);
            plain = runInproc(rig, w, 0.25 * S, a.seed, shorts, longs, nullptr);
        }
        tw = tracedWindow<InprocRig>(
            [&](InprocRig &r) { setupInproc(w, true, r); },
            [&](InprocRig &r) {
                return runInproc(r, w, 0.35 * S, a.seed + 1, shorts, longs,
                                 &spans);
            });
    }

    Outcome o;
    std::printf("per layer (%s, traced window %.3g s):\n", w.name.c_str(),
                tw.wall_s);
    account(o, *plain);
    account(o, *tw.win);
    accountCheck(o, checkAnswers(w, shorts, longs));
    Metrics &v = o.values;
    for (const auto &d : perLayerMetrics())
        v[d.name] = 0.0; // metrics of layers this workload never enters
    const std::vector<double> engine_e2e_us = engineLayerMetrics(tw, v);
    if (w.wire) {
        wireSpanMetrics(tw, spans, engine_e2e_us, v);
        writeSpanFile(a, w, spans.spans());
    } else {
        writeSpanFile(a, w, inprocSpanMetrics(tw, spans, v));
    }
    replayMetrics(w, shorts, S, v);

    std::vector<double> lags = plain->sched_lag_ms, long_ms = plain->long_latency_ms;
    lags.insert(lags.end(), tw.win->sched_lag_ms.begin(), tw.win->sched_lag_ms.end());
    long_ms.insert(long_ms.end(), tw.win->long_latency_ms.begin(),
                   tw.win->long_latency_ms.end());
    v["trace.sched_lag_ms_p99"] = percentile(lags, 99);
    v["long_latency_p50_ms"] = median(long_ms);
    v["latency_p99_ms"] = plain->latencyMs(99);
    const Ratio traced{tw.win->pairsPerSecond(), plain->pairsPerSecond()};
    v["trace.overhead_frac"] = 1.0 - traced.value();
    v["error_rate"] = ratio(o.failed, o.attempted);

    for (const auto &m : perLayerMetrics())
        line(m.name.c_str(), v[m.name], m.unit.c_str(), "-> " + m.moves);
    std::printf("  traced / untraced pairs_per_s: %s; long latencies: %zu\n",
                traced.str().c_str(), long_ms.size());
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = parseArgs(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--commit <id>] [--trace-dir <dir>]\n"
                     "       %s --describe\n",
                     argv[0], argv[0]);
        return 2;
    }
    if (args->describe) {
        std::printf("%s\n", describeJson().c_str());
        return 0;
    }
    const auto w = makeWorkload(args->workload, args->seed);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
        return 2;
    }
    try {
        std::printf("provenance: %s\n",
                    provenanceJson(*w, args->seed, args->seconds,
                                   args->trace == 1, args->commit)
                        .c_str());
        const Outcome o = args->trace ? tracedRun(*w, *args) : timedRun(*w, *args);
        std::printf("%s\n",
                    resultLine(o.wrong == 0, o.attempted, o.failed,
                               args->trace ? perLayerMetrics()
                                           : endToEndMetrics(),
                               o.values)
                        .c_str());
        return o.wrong == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
