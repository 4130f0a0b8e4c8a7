#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string_view>

#include "engine/cascade.hh"
#include "kernel/registry.hh"
#include "kernel/simd/bpm_simd.hh"
#include "serve/protocol.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Now plus @p seconds; an infinite budget is capped at a day. */
Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  std::min(seconds, 86400.0)));
}

double
gcups(u64 cells, i64 ns)
{
    return ns > 0 ? static_cast<double>(cells) / static_cast<double>(ns)
                  : 0.0;
}

} // namespace

double
kernelGcups(const Workload &w, const char *name, bool want_cigar,
            double budget_s)
{
    const auto &d = gmx::kernel::AlignerRegistry::instance().require(name);
    const auto &pairs = d.streaming && !w.longs.empty() ? w.longs : w.pool;
    const gmx::engine::CascadeConfig cascade =
        engineConfig(w, false).cascade;
    gmx::ScratchArena arena;
    u64 cells = 0;
    i64 ns = 0;
    size_t measured = 0;
    const auto stop = after(budget_s);
    // At least one pass looking for a pair the kernel accepts, then on
    // until the budget is spent.
    for (size_t i = 0; measured == 0 ? i < pairs.size() : Clock::now() < stop;
         ++i) {
        const auto &pair = pairs[i % pairs.size()];
        const size_t n = pair.pattern.size(), m = pair.text.size();
        if (!gmx::kernel::checkKernelLength(d, n, m).ok())
            continue;
        gmx::kernel::KernelParams params;
        params.want_cigar = want_cigar;
        // The filter kernel runs with the cascade's error bound, as the
        // filter tier does; the others search for their own bound.
        if (std::string_view(name) == cascade.filter_kernel)
            params.k = gmx::engine::cascadeFilterK(cascade, n, m);
        params.window = cascade.long_window;
        params.overlap = cascade.long_overlap;
        gmx::KernelCounts counts;
        arena.reset();
        gmx::KernelContext ctx(gmx::CancelToken{}, &counts, &arena);
        const i64 t0 = nowNs();
        (void)d.run(pair, params, ctx);
        ns += nowNs() - t0;
        cells += counts.cells;
        ++measured;
    }
    return gcups(cells, ns);
}

double
batchGcups(const Workload &w, double budget_s)
{
    std::vector<const gmx::seq::SequencePair *> fits;
    for (const auto &p : w.pool)
        if (gmx::simd::batchLaneFits(p))
            fits.push_back(&p);
    if (fits.size() < gmx::simd::kBatchLanes)
        return 0.0;
    gmx::ScratchArena arena;
    u64 cells = 0;
    i64 ns = 0;
    size_t next = 0;
    const auto stop = after(budget_s);
    do {
        std::array<gmx::simd::BatchLane, gmx::simd::kBatchLanes> lanes;
        for (auto &lane : lanes)
            lane.pair = fits[next++ % fits.size()];
        arena.reset();
        gmx::KernelContext ctx(gmx::CancelToken{}, nullptr, &arena);
        const i64 t0 = nowNs();
        gmx::simd::bpmDistanceBatchLanes(lanes, ctx);
        ns += nowNs() - t0;
        for (const auto &lane : lanes)
            cells += lane.counts.cells;
    } while (Clock::now() < stop);
    return gcups(cells, ns);
}

CascadeReplay
replayCascade(const Workload &w, size_t max_pairs, double budget_s)
{
    const gmx::engine::CascadeConfig config = engineConfig(w, false).cascade;
    const size_t n = std::min(max_pairs, w.pool.size());
    gmx::ScratchArena arena;
    CascadeReplay out;
    // The warm pass grows the arena to the workload's peak, as a
    // long-lived engine worker's arena already is.
    for (size_t i = 0; i < n; ++i) {
        arena.reset();
        (void)gmx::engine::cascadeAlign(w.pool[i], config, w.want_cigar, {},
                                        arena);
    }
    const auto stop = after(budget_s);
    for (size_t i = 0; i < n && Clock::now() < stop; ++i) {
        const u64 allocs0 = arena.blockAllocs();
        arena.reset();
        const auto outcome = gmx::engine::cascadeAlign(
            w.pool[i], config, w.want_cigar, {}, arena);
        out.arena_allocs += arena.blockAllocs() - allocs0;
        ++out.requests;
        for (const auto &a : outcome.attempts) {
            const auto t = static_cast<unsigned>(a.tier);
            ++out.attempts[t];
            out.cells[t] += a.cells;
        }
    }
    return out;
}

ProtocolCost
protocolCost(const Workload &w, const Ledger &answers, double budget_s)
{
    namespace sv = gmx::serve;
    const size_t n = std::min<size_t>(w.pool.size(), 4096);
    std::vector<sv::AlignRequestFrame> reqs(n);
    std::vector<sv::AlignResponseFrame> resps(n);
    for (size_t i = 0; i < n; ++i) {
        reqs[i].id = resps[i].id = i + 1;
        reqs[i].want_cigar = w.want_cigar;
        reqs[i].pattern = w.pool[i].pattern.str();
        reqs[i].text = w.pool[i].text.str();
        if (const auto &r = answers.first(i)) {
            resps[i].distance = r->found() ? r->distance : -1;
            resps[i].has_cigar = r->has_cigar;
            if (r->has_cigar)
                resps[i].cigar = r->cigar.str();
        }
    }

    ProtocolCost out;
    std::vector<std::string> encoded;
    for (size_t i = 0; i < n; ++i) {
        encoded.push_back(sv::encodeAlignRequest(reqs[i]));
        encoded.push_back(sv::encodeAlignResponse(resps[i]));
        out.bytes_per_req += static_cast<double>(encoded[encoded.size() - 2].size() +
                                                 encoded.back().size());
    }
    out.bytes_per_req /= static_cast<double>(n);

    u64 frames = 0;
    i64 ns = 0;
    auto stop = after(budget_s / 2);
    do {
        const i64 t0 = nowNs();
        for (size_t i = 0; i < n; ++i) {
            (void)sv::encodeAlignRequest(reqs[i]);
            (void)sv::encodeAlignResponse(resps[i]);
        }
        ns += nowNs() - t0;
        frames += 2 * n;
    } while (Clock::now() < stop);
    out.encode_ns = static_cast<double>(ns) / static_cast<double>(frames);

    frames = 0;
    ns = 0;
    stop = after(budget_s / 2);
    sv::AlignRequestFrame req;
    sv::AlignResponseFrame resp;
    bool round_trip = true;
    do {
        const i64 t0 = nowNs();
        for (size_t i = 0; i < encoded.size(); ++i) {
            const std::string &f = encoded[i];
            sv::FrameHeader hdr;
            gmx::Status s = sv::decodeHeader(f.data(), sv::kHeaderBytes,
                                             sv::kDefaultMaxFrameBytes, hdr);
            const char *payload = f.data() + sv::kHeaderBytes;
            if (s.ok())
                s = i % 2 == 0 ? sv::decodeAlignRequest(payload,
                                                        hdr.payload_len, req)
                               : sv::decodeAlignResponse(payload,
                                                         hdr.payload_len, resp);
            round_trip &= s.ok();
        }
        ns += nowNs() - t0;
        frames += encoded.size();
    } while (Clock::now() < stop);
    if (!round_trip)
        throw std::runtime_error("wire codec failed to decode its own frames");
    out.decode_ns = static_cast<double>(ns) / static_cast<double>(frames);
    return out;
}

} // namespace perfbench
