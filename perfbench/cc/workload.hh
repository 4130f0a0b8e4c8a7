/**
 * @file
 * The benchmark's four workloads and the inputs they generate from a
 * seed. The program under test only ever sees the generated pairs.
 */

#ifndef GMX_PERFBENCH_WORKLOAD_HH
#define GMX_PERFBENCH_WORKLOAD_HH

#include <optional>
#include <string>
#include <vector>

#include "align/types.hh"
#include "common/types.hh"
#include "sequence/sequence.hh"

namespace perfbench {

using gmx::u64;

/** Everything one workload feeds the service, generated from a seed. */
struct Workload
{
    std::string name;

    /** Driven through AlignServer + AlignClient instead of in-process. */
    bool wire = false;
    bool want_cigar = false;

    /** Closed-loop requests in flight per load thread. */
    size_t window = 256;

    /**
     * Closed-loop pairs. In-process workloads cycle through them; wire
     * workloads send each at most once as a "distinct" pair and draw
     * repeats from the recently sent ones.
     */
    std::vector<gmx::seq::SequencePair> pool;

    /** Pair shapes (length, divergence) interleaved in pool: pair i has
     *  shape i % shapes. */
    size_t shapes = 1;

    /** Set-up warm-up pairs, disjoint from the pool. */
    std::vector<gmx::seq::SequencePair> warm;

    /** Open-loop long-class pairs, one due every long_period_s. */
    std::vector<gmx::seq::SequencePair> longs;
    double long_period_s = 0.25;

    /** EngineConfig::memory_budget_bytes (0 = unlimited). */
    size_t memory_budget = 0;

    /** Wire: load threads (one connection each). */
    unsigned clients = 1;
    /** Wire: share of requests that repeat a recent distinct pair. */
    double repeat_frac = 0.0;
    /** Wire: how many recent distinct pairs a repeat draws from. */
    size_t repeat_span = 0;
};

/** Names accepted by makeWorkload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Generate @p name's inputs from @p seed; nullopt for an unknown name. */
std::optional<Workload> makeWorkload(const std::string &name, u64 seed);

/** Every generated base, with separators; equal iff the inputs are. */
std::string serializeInputs(const Workload &w);

/** Order-sensitive 64-bit FNV-1a digest of a result's CIGAR ops. */
u64 cigarDigest(const gmx::align::AlignResult &r);

} // namespace perfbench

#endif // GMX_PERFBENCH_WORKLOAD_HH
