/**
 * @file
 * Single-threaded replays of a workload's own inputs through one layer
 * at a time: registry kernels, the lane batcher, the cascade, and the
 * wire protocol codec. Each is timed from outside, around public calls.
 */

#ifndef GMX_PERFBENCH_LAYERS_HH
#define GMX_PERFBENCH_LAYERS_HH

#include <array>

#include "engine/metrics.hh"
#include "load.hh"
#include "workload.hh"

namespace perfbench {

/** Registry kernels the traced run replays, in metric-name order. */
inline constexpr std::array<const char *, 4> kReplayKernels = {
    "bitap", "gmx-banded", "gmx-full", "gmx-windowed-stream"};

/**
 * GCUPS of registry kernel @p name over @p w's pairs (its long pairs
 * for a streaming kernel, when the workload has any) for about
 * @p budget_s: DP cells over the wall time of AlignerDescriptor::run.
 */
double kernelGcups(const Workload &w, const char *name, bool want_cigar,
                   double budget_s);

/** GCUPS of simd::bpmDistanceBatchLanes over full groups of @p w's pairs. */
double batchGcups(const Workload &w, double budget_s);

/** Totals of an engine::cascadeAlign replay with one reused arena. */
struct CascadeReplay
{
    u64 requests = 0;
    u64 arena_allocs = 0; //!< arena block allocations after the warm pass
    std::array<u64, gmx::engine::kTierCount> attempts{};
    std::array<u64, gmx::engine::kTierCount> cells{};
};

/**
 * Replay up to @p max_pairs of @p w's pool through engine::cascadeAlign,
 * after one warm pass, stopping early after @p budget_s.
 */
CascadeReplay replayCascade(const Workload &w, size_t max_pairs,
                            double budget_s);

/** Per-frame cost of the wire codec on @p w's own frames. */
struct ProtocolCost
{
    double encode_ns = 0;
    double decode_ns = 0;
    double bytes_per_req = 0; //!< request frame + response frame
};

/** Responses are built from @p answers (the first answer per input). */
ProtocolCost protocolCost(const Workload &w, const Ledger &answers,
                          double budget_s);

} // namespace perfbench

#endif // GMX_PERFBENCH_LAYERS_HH
