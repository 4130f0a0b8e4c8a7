#include "check.hh"

#include "align/nw.hh"
#include "align/verify.hh"
#include "kernel/registry.hh"

namespace perfbench {

namespace {

void
fail(CheckReport &rep, const std::string &what)
{
    ++rep.wrong;
    if (rep.first_error.empty())
        rep.first_error = what;
}

} // namespace

std::vector<size_t>
nwSample(const Workload &w)
{
    const size_t runs = w.pool.size() / w.shapes;
    const size_t stride = std::max<size_t>(1, w.pool.size() / kNwSample);
    std::vector<size_t> out;
    for (size_t run = 0; run < runs; run += stride)
        for (size_t s = 0; s < w.shapes; ++s)
            out.push_back(run * w.shapes + s);
    return out;
}

CheckReport
checkAnswers(const Workload &w, const Ledger &shorts, const Ledger &longs)
{
    CheckReport rep;
    for (size_t i = 0; i < w.pool.size(); ++i) {
        const auto &r = shorts.first(i);
        if (!r || !r->has_cigar)
            continue;
        const auto &p = w.pool[i];
        ++rep.checked;
        const auto v = gmx::align::verifyResult(p.pattern, p.text, *r);
        if (!v.ok)
            fail(rep, "input " + std::to_string(i) +
                          ": CIGAR fails verifyResult: " + v.error);
    }
    for (size_t i : nwSample(w)) {
        const auto &r = shorts.first(i);
        if (!r)
            continue;
        const auto &p = w.pool[i];
        ++rep.checked;
        const gmx::i64 nw = gmx::align::nwDistance(p.pattern, p.text);
        if (r->distance != nw)
            fail(rep, "input " + std::to_string(i) + ": distance " +
                          std::to_string(r->distance) + " != nwDistance " +
                          std::to_string(nw));
    }

    const auto cascade = engineConfig(w, false).cascade;
    const auto &stream =
        gmx::kernel::AlignerRegistry::instance().require(cascade.long_kernel);
    for (size_t i = 0; i < w.longs.size(); ++i) {
        const auto &r = longs.first(i);
        if (!r)
            continue;
        const auto &p = w.longs[i];
        gmx::kernel::KernelParams params;
        params.want_cigar = true;
        params.window = cascade.long_window;
        params.overlap = cascade.long_overlap;
        gmx::KernelContext ctx;
        const auto ref = stream.run(p, params, ctx);
        ++rep.checked;
        if (ref.distance != r->distance || !(ref.cigar == r->cigar))
            fail(rep, "long input " + std::to_string(i) +
                          ": differs from a standalone " +
                          cascade.long_kernel + " run");
        const auto v = gmx::align::verifyResult(p.pattern, p.text, *r);
        if (!v.ok)
            fail(rep, "long input " + std::to_string(i) +
                          ": CIGAR fails verifyResult: " + v.error);
    }
    return rep;
}

} // namespace perfbench
