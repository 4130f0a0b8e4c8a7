#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::Request: return "request";
    case Layer::Submit: return "engine.submit";
    case Layer::Queue: return "engine.queue";
    case Layer::Service: return "engine.service";
    case Layer::Cascade: return "cascade";
    case Layer::ClientSend: return "serve.client.send";
    case Layer::ClientWait: return "client.wait";
    }
    return "?";
}

Layer
parentOf(Layer l)
{
    return l == Layer::Cascade ? Layer::Service : Layer::Request;
}

namespace {

/** Length of the union of @p iv clipped to [lo, hi]. */
i64
coveredNs(std::vector<std::pair<i64, i64>> &iv, i64 lo, i64 hi)
{
    std::sort(iv.begin(), iv.end());
    i64 covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

} // namespace

SelfTimes
selfTimes(std::vector<Span> spans)
{
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &a, const Span &b) { return a.req < b.req; });
    SelfTimes out;
    std::vector<std::pair<i64, i64>> children;
    for (size_t begin = 0; begin < spans.size();) {
        size_t end = begin;
        while (end < spans.size() && spans[end].req == spans[begin].req)
            ++end;
        for (size_t i = begin; i < end; ++i) {
            const Span &s = spans[i];
            children.clear();
            for (size_t j = begin; j < end; ++j)
                if (j != i && spans[j].layer != Layer::Request &&
                    parentOf(spans[j].layer) == s.layer)
                    children.emplace_back(spans[j].t0_ns, spans[j].t1_ns);
            const i64 self = (s.t1_ns - s.t0_ns) -
                             coveredNs(children, s.t0_ns, s.t1_ns);
            const size_t l = static_cast<size_t>(s.layer);
            out.sum_us[l] += static_cast<double>(self) / 1e3;
            ++out.spans[l];
        }
        begin = end;
    }
    return out;
}

EngineTrace
engineTrace(const gmx::engine::TraceRecorder &rec)
{
    using gmx::engine::TraceEvent;
    // toUs(tp) is tp minus the recorder's epoch, so the epoch itself sits
    // at -toUs(clock zero) on the steady clock.
    const i64 epoch_us =
        -rec.toUs(gmx::engine::TraceRecorder::Clock::time_point{});
    const auto spans = rec.spans();
    EngineTrace out;
    if (spans.empty())
        return out;
    u64 lo = spans.front().id, hi = lo;
    for (const auto &s : spans) {
        lo = std::min(lo, s.id);
        hi = std::max(hi, s.id);
    }
    out.base = lo;
    out.times.resize(hi - lo + 1);
    for (const auto &s : spans) {
        EngineTimes &t = out.times[s.id - lo];
        const i64 ns = (s.t_us + epoch_us) * 1000;
        switch (s.event) {
        case TraceEvent::Enqueue: t.enqueue = ns; break;
        case TraceEvent::Dispatch: t.dispatch = ns; break;
        case TraceEvent::TierAttempt:
            if (t.first_attempt < 0)
                t.first_attempt = ns;
            break;
        case TraceEvent::Complete: t.complete = ns; break;
        case TraceEvent::Admission: break;
        }
    }
    return out;
}

i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans) {
        const char *parent =
            s.layer == Layer::Request ? "" : layerName(parentOf(s.layer));
        std::fprintf(f,
                     "{\"req\":%llu,\"layer\":\"%s\",\"parent\":\"%s\","
                     "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(s.req),
                     layerName(s.layer), parent,
                     static_cast<long long>(s.t0_ns),
                     static_cast<long long>(s.t1_ns));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
