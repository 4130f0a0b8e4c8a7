#include "report.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "kernel/dispatch.hh"
#include "load.hh"
#include "layers.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

std::vector<MetricDef>
buildPerLayer()
{
    const std::string wire = "pairs_per_s and latency_p50_ms on wire_dup";
    const std::string cigar_mem = "peak_rss_mb and latency_p99_ms on cigar_long";
    std::vector<MetricDef> m = {
        {"serve.front_door_us", "us", "lower", wire},
        {"serve.client.send_us", "us", "lower", wire},
        {"serve.protocol.encode_ns", "ns", "lower", wire},
        {"serve.protocol.decode_ns", "ns", "lower", wire},
        {"serve.bytes_per_req", "B", "lower", wire},
        {"serve.router.cache_hit_ratio", "ratio", "higher", wire},
        {"serve.router.cache_evictions", "count", "lower", wire},
        {"serve.shed", "count", "lower", "error_rate on wire_dup"},
        {"serve.throttled", "count", "lower", "error_rate on wire_dup"},
        {"engine.submit_us", "us", "lower", "pairs_per_s on screen150"},
        {"engine.overhead_us", "us", "lower", "pairs_per_s on screen150"},
        {"engine.queue_wait_us_p50", "us", "lower",
         "latency_p99_ms on every workload"},
        {"engine.queue_wait_us_p99", "us", "lower",
         "latency_p99_ms on every workload"},
        {"engine.worker_busy_frac", "ratio", "higher",
         "pairs_per_s on every workload (kernel- or front-end-bound)"},
        {"engine.microbatch_pairs", "count", "higher",
         "pairs_per_s on screen150"},
        {"engine.lane_occupancy", "ratio", "higher",
         "pairs_per_s on screen150"},
        {"engine.lane_packed_frac", "ratio", "higher",
         "pairs_per_s on screen150"},
        {"engine.mem_reserved_peak_bytes", "B", "lower", cigar_mem},
        {"engine.arena_peak_bytes", "B", "lower", cigar_mem},
        {"engine.downgraded", "count", "lower", cigar_mem},
    };
    const std::pair<const char *, const char *> tiers[] = {
        {"filter", "pairs_per_s on screen150 and cigar_long"},
        {"banded", "pairs_per_s on divergent_mix"},
        {"full", "pairs_per_s on divergent_mix and cigar_long"},
        {"streamed", "long_latency_p50_ms on cigar_long"},
    };
    for (const auto &[t, moves] : tiers) {
        const std::string p = std::string("cascade.") + t + ".";
        m.push_back({p + "attempts_per_req", "count", "lower", moves});
        m.push_back({p + "useful_ratio", "ratio", "higher", moves});
        m.push_back({p + "setup_us_per_req", "us", "lower", moves});
        m.push_back({p + "kernel_us_per_req", "us", "lower", moves});
        m.push_back({p + "gcups", "GCUPS", "higher", moves});
    }
    const char *kernel_moves[] = {
        "pairs_per_s on screen150 and cigar_long (filter tier)",
        "pairs_per_s on divergent_mix (banded tier)",
        "pairs_per_s on divergent_mix and cigar_long (full tier)",
        "long_latency_p50_ms on cigar_long (streamed tier)",
    };
    for (size_t i = 0; i < kReplayKernels.size(); ++i) {
        const std::string p = std::string("kernel.") + kReplayKernels[i] + ".";
        m.push_back({p + "dist_gcups", "GCUPS", "higher", kernel_moves[i]});
        m.push_back({p + "cigar_gcups", "GCUPS", "higher", kernel_moves[i]});
    }
    m.push_back({"kernel.batch.gcups", "GCUPS", "higher",
                 "pairs_per_s on screen150 (lane-packed filter tier)"});
    m.push_back({"kernel.arena.allocs_per_req", "count", "lower",
                 "pairs_per_s on every in-process workload"});
    m.push_back({"trace.overhead_frac", "ratio", "lower",
                 "self-check: traced vs timed pairs_per_s"});
    m.push_back({"trace.coverage", "ratio", "higher",
                 "self-check: layer self times / end-to-end time"});
    m.push_back({"trace.sched_lag_ms_p99", "ms", "lower",
                 "self-check: latency_p99_ms on cigar_long"});
    m.push_back({"latency_p99_ms", "ms", "lower",
                 "end to end on every workload, without a bound: host "
                 "stalls move it severalfold from run to run"});
    m.push_back({"long_latency_p50_ms", "ms", "lower",
                 "end to end on cigar_long: long-class pairs from due time"});
    m.push_back({"error_rate", "ratio", "lower",
                 "end to end: failed / attempted operations"});
    return m;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
defsJson(const std::vector<MetricDef> &defs)
{
    std::string out = "[";
    for (size_t i = 0; i < defs.size(); ++i) {
        const MetricDef &d = defs[i];
        out += (i ? ",\n  " : "\n  ");
        out += "{\"name\": \"" + d.name + "\", \"unit\": \"" + d.unit +
               "\", \"better\": \"" + d.better + "\", \"moves\": \"" +
               jsonEscape(d.moves) + "\"}";
    }
    return out + "\n]";
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string brand(reinterpret_cast<const char *>(regs), 48);
        brand = brand.c_str(); // drop trailing NULs
        const size_t a = brand.find_first_not_of(' ');
        return a == std::string::npos ? "" : brand.substr(a);
    }
#endif
    return "unknown";
}

std::string
cpuFlags()
{
    std::string out;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    const std::pair<const char *, bool> flags[] = {
        {"avx2", __builtin_cpu_supports("avx2")},
        {"avx512f", __builtin_cpu_supports("avx512f")},
        {"avx512bw", __builtin_cpu_supports("avx512bw")},
        {"avx512vl", __builtin_cpu_supports("avx512vl")},
    };
    for (const auto &[name, on] : flags)
        if (on)
            out += std::string(out.empty() ? "" : " ") + name;
#endif
    return out;
}

const char *
yes(bool b)
{
    return b ? "true" : "false";
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"pairs_per_s", "1/s", "higher",
         "closed-loop pairs answered Ok per second, upper quartile of "
         "20 sub-windows"},
        {"latency_p50_ms", "ms", "lower",
         "per request, send/submit to result, lower quartile of the "
         "sub-windows' p50"},
        {"setup_s", "s", "lower",
         "construction, start, connect and warm-up; median of 5"},
        {"peak_rss_mb", "MB", "lower", "peak resident set of the process"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = buildPerLayer();
    return defs;
}

std::string
describeJson()
{
    return "{\"end_to_end\": " + defsJson(endToEndMetrics()) +
           ",\n\"per_layer\": " + defsJson(perLayerMetrics()) + "}";
}

std::string
provenanceJson(const Workload &w, u64 seed, double seconds, bool traced,
               const std::string &commit)
{
    const auto ec = engineConfig(w, false);
    const char *force = std::getenv("GMX_FORCE_SCALAR");
    char buf[4096];
    std::snprintf(
        buf, sizeof(buf),
        "{\"commit\":\"%s\",\"build_type\":\"%s\",\"cxx_flags\":\"%s\","
        "\"cpu\":\"%s\",\"cpu_flags\":\"%s\",\"nproc\":%u,"
        "\"simd_dispatch\":%s,\"batch_dispatch\":%s,"
        "\"GMX_FORCE_SCALAR\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
        "\"seconds\":%g,\"trace\":%d,"
        "\"engine\":{\"engines\":%d,\"workers\":%u,\"queue_capacity\":%zu,"
        "\"backpressure\":\"block\",\"microbatch_max\":%zu,"
        "\"microbatch_bases\":%zu,\"filter_batching\":\"auto\","
        "\"memory_budget_bytes\":%zu,\"trace_capacity_traced\":%zu,"
        "\"trace_sample_every_traced\":%llu,\"filter_kernel\":\"%s\","
        "\"banded_kernel\":\"%s\",\"full_kernel\":\"%s\","
        "\"long_kernel\":\"%s\",\"long_threshold\":%zu},"
        "\"load\":{\"threads\":%u,\"window\":%zu,\"pool\":%zu,"
        "\"long_pairs\":%zu,\"long_period_s\":%g,\"repeat_frac\":%g,"
        "\"repeat_span\":%zu}",
        commit.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
        jsonEscape(cpuModel()).c_str(), cpuFlags().c_str(),
        std::thread::hardware_concurrency(),
        yes(gmx::kernel::simdDispatchEnabled()),
        yes(gmx::kernel::batchDispatchEnabled()), force ? force : "",
        w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
        traced ? 1 : 0, w.wire ? 2 : 1, ec.workers, ec.queue_capacity,
        ec.microbatch_max, ec.microbatch_bases, ec.memory_budget_bytes,
        engineConfig(w, true).trace_capacity,
        static_cast<unsigned long long>(kTraceSampleEvery),
        ec.cascade.filter_kernel, ec.cascade.banded_kernel,
        ec.cascade.full_kernel, ec.cascade.long_kernel,
        ec.cascade.long_threshold, w.clients, w.window, w.pool.size(),
        w.longs.size(), w.long_period_s, w.repeat_frac, w.repeat_span);
    std::string out = buf;
    if (w.wire) {
        const auto sc = serverConfig();
        std::snprintf(buf, sizeof(buf),
                      ",\"server\":{\"handler_threads\":%u,"
                      "\"max_connections\":%u,\"pending_cap\":%zu,"
                      "\"max_inflight_per_conn\":%zu,"
                      "\"quota_tokens_per_sec\":%g,\"cache_capacity\":%zu,"
                      "\"cache_shards\":%zu}",
                      sc.handler_threads, sc.max_connections, sc.pending_cap,
                      sc.max_inflight_per_conn, sc.quota.tokens_per_sec,
                      sc.router.cache_capacity, sc.router.cache_shards);
        out += buf;
    }
    return out + "}";
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string
resultLine(bool correct, u64 attempted, u64 failed,
           const std::vector<MetricDef> &defs,
           const std::map<std::string, double> &values)
{
    std::string out = std::string("{\"correct\": ") + yes(correct) +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        if (it == values.end())
            throw std::logic_error("metric not computed: " + defs[i].name);
        if (!std::isfinite(it->second))
            throw std::logic_error("metric not finite: " + defs[i].name);
        char num[64];
        std::snprintf(num, sizeof(num), "%.12g", it->second);
        out += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " + num +
               ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    return out + "}}";
}

} // namespace perfbench
