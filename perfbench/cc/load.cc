#include "load.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <thread>

#include "stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using gmx::engine::Engine;

namespace {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

i64
ns(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

void
noteFailure(Window &win, const gmx::Status &s)
{
    ++win.failed;
    if (win.first_error.empty())
        win.first_error = s.toString();
}

void
noteWrong(Window &win, size_t idx)
{
    ++win.wrong;
    if (win.first_error.empty())
        win.first_error =
            "input " + std::to_string(idx) + " answered differently twice";
}

} // namespace

bool
Ledger::note(size_t idx, const gmx::align::AlignResult &r)
{
    const u64 digest = cigarDigest(r);
    auto &slot = first_[idx];
    if (!slot) {
        slot = r;
        digest_[idx] = digest;
        return true;
    }
    return slot->distance == r.distance && slot->has_cigar == r.has_cigar &&
           digest_[idx] == digest;
}

void
Reservoir::add(double v)
{
    ++seen_;
    if (kept_.size() < kCapacity) {
        kept_.push_back(v);
        return;
    }
    const u64 j = rng_.below(seen_);
    if (j < kCapacity)
        kept_[j] = v;
}

void
Reservoir::merge(const Reservoir &o)
{
    for (double v : o.kept_)
        add(v);
    // Samples o already dropped still count as seen; the merged sample
    // then weighs both streams by what each kept, which is uniform when
    // both saw the same number.
    seen_ += o.seen_ - o.kept_.size();
}

Window::Window(u64 seed, double secs) : seconds(secs), ok_per_sub(kSubWindows)
{
    for (size_t i = 0; i < kSubWindows; ++i)
        latency_us.emplace_back(seed * 31 + i);
}

void
Window::merge(const Window &o)
{
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (first_error.empty())
        first_error = o.first_error;
    for (size_t i = 0; i < kSubWindows; ++i) {
        ok_per_sub[i] += o.ok_per_sub[i];
        latency_us[i].merge(o.latency_us[i]);
    }
    long_latency_ms.insert(long_latency_ms.end(), o.long_latency_ms.begin(),
                           o.long_latency_ms.end());
    sched_lag_ms.insert(sched_lag_ms.end(), o.sched_lag_ms.begin(),
                        o.sched_lag_ms.end());
}

void
Window::noteOk(double at_s, double latency)
{
    const size_t sub = std::min<size_t>(
        kSubWindows - 1,
        static_cast<size_t>(at_s / seconds * static_cast<double>(kSubWindows)));
    ++ok_per_sub[sub];
    latency_us[sub].add(latency);
}

u64
Window::okInWindow() const
{
    u64 n = 0;
    for (u64 c : ok_per_sub)
        n += c;
    return n;
}

u64
Window::latencySamples() const
{
    u64 n = 0;
    for (const Reservoir &r : latency_us)
        n += r.seen();
    return n;
}

double
Window::pairsPerSecond() const
{
    const double sub_s = seconds / static_cast<double>(kSubWindows);
    std::vector<double> rates;
    for (u64 c : ok_per_sub)
        rates.push_back(static_cast<double>(c) / sub_s);
    return percentile(rates, kQuietQuartile);
}

double
Window::latencyMs(double pct) const
{
    // Per-sub-window percentiles, then their lower quartile (see
    // kSubWindows). A sub-window too small to hold ten samples beyond pct
    // falls back to the whole window's samples.
    std::vector<double> per_sub, pooled;
    bool every_sub_deep = true;
    for (const Reservoir &r : latency_us) {
        every_sub_deep &= samplesBeyond(pct, r.samples().size()) >= 10;
        per_sub.push_back(percentile(r.samples(), pct));
        pooled.insert(pooled.end(), r.samples().begin(), r.samples().end());
    }
    return (every_sub_deep ? percentile(per_sub, 100 - kQuietQuartile)
                           : percentile(pooled, pct)) /
           1e3;
}

gmx::engine::EngineConfig
engineConfig(const Workload &w, bool traced)
{
    gmx::engine::EngineConfig c;
    c.workers = w.wire ? 1 : 2;
    c.memory_budget_bytes = w.memory_budget;
    c.trace_capacity = traced ? (w.wire ? size_t{1} << 19 : size_t{1} << 20)
                              : 0;
    c.trace_sample_every = traced ? kTraceSampleEvery : 1;
    return c;
}

gmx::serve::AlignServerConfig
serverConfig()
{
    gmx::serve::AlignServerConfig c;
    c.host = "127.0.0.1";
    c.port = 0; // ephemeral
    return c;
}

double
setupInproc(const Workload &w, bool traced, InprocRig &rig)
{
    // Warm-up uses the closed-loop shapes only: a long-class pair would
    // make set-up time mostly one long kernel run.
    const auto t0 = Clock::now();
    rig.engine = std::make_unique<Engine>(engineConfig(w, traced));
    std::vector<std::future<Engine::AlignOutcome>> warm;
    for (const auto &p : w.warm)
        warm.push_back(rig.engine->submit(p, w.want_cigar));
    rig.submitted = warm.size();
    for (auto &f : warm)
        if (auto out = f.get(); !out.ok())
            throw std::runtime_error("warm-up request failed: " +
                                     out.status().toString());
    return secondsBetween(t0, Clock::now());
}

Window
runInproc(InprocRig &rig, const Workload &w, double seconds, u64 seed,
          Ledger &ledger, Ledger &longs, SpanLog *spans)
{
    struct InFlight
    {
        std::future<Engine::AlignOutcome> future;
        Clock::time_point start; //!< submit, or due time for long pairs
        size_t idx = 0;
        u64 traced_id = 0; //!< engine id when the engine traces it
        i64 submit0 = 0, submit1 = 0;
        bool done = false; //!< result taken (the future is spent)
    };

    Window win(seed, seconds);
    gmx::engine::SubmitOptions opts;
    opts.want_cigar = w.want_cigar;
    gmx::engine::SubmitOptions long_opts;
    long_opts.want_cigar = true;

    auto submit = [&](const gmx::seq::SequencePair &p, Clock::time_point start,
                      size_t idx, const gmx::engine::SubmitOptions &o) {
        ++win.attempted;
        const u64 id = ++rig.submitted;
        InFlight f;
        f.start = start;
        f.idx = idx;
        f.traced_id = spans && id % kTraceSampleEvery == 0 ? id : 0;
        if (f.traced_id)
            f.submit0 = nowNs();
        f.future = rig.engine->submit(p, o);
        if (f.traced_id)
            f.submit1 = nowNs();
        return f;
    };

    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    auto finish = [&](InFlight &f, bool is_long) {
        auto out = f.future.get();
        f.done = true;
        const auto seen = Clock::now();
        if (!out.ok()) {
            noteFailure(win, out.status());
            return;
        }
        if (!(is_long ? longs : ledger).note(f.idx, *out))
            noteWrong(win, f.idx);
        if (seen < end) {
            const double lat_us =
                std::chrono::duration<double, std::micro>(seen - f.start)
                    .count();
            // Scheduled long pairs are a fraction of a percent of the
            // requests, so in the closed loop's percentiles they would
            // sit right at p99 and make it bimodal; they get their own.
            if (is_long)
                win.long_latency_ms.push_back(lat_us / 1e3);
            else
                win.noteOk(secondsBetween(t0, seen), lat_us);
        }
        if (f.traced_id) {
            spans->add(f.traced_id, Layer::Request, ns(f.start), ns(seen));
            spans->add(f.traced_id, Layer::Submit, f.submit0, f.submit1);
        }
    };

    const bool open_loop = !w.longs.empty();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(w.long_period_s));
    auto next_due = t0 + period / 2;
    size_t cursor = 0, long_cursor = 0;
    std::deque<InFlight> ring; //!< closed-loop requests, oldest first
    size_t ring_done = 0;      //!< entries of ring already finished
    std::vector<InFlight> long_flight;
    auto ready = [](InFlight &f) {
        return !f.done && f.future.wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready;
    };
    auto pollLongs = [&] {
        for (size_t i = 0; i < long_flight.size();) {
            if (ready(long_flight[i])) {
                finish(long_flight[i], true);
                long_flight.erase(long_flight.begin() + i);
            } else {
                ++i;
            }
        }
    };

    // Without scheduled long pairs the loop blocks on the oldest request:
    // polling all of them would cost the single load thread O(window)
    // work per poll and make it the bound. With long pairs, results
    // complete out of order (a short pair behind a long one finishes
    // first), so while the oldest is still running the loop polls every
    // request in flight: a finished one is timed when it finishes, not
    // when the ones before it do.
    constexpr auto kPoll = std::chrono::microseconds(50);
    for (;;) {
        const auto now = Clock::now();
        if (now >= end)
            break;
        if (open_loop && now >= next_due) {
            win.sched_lag_ms.push_back(
                std::chrono::duration<double, std::milli>(now - next_due)
                    .count());
            const size_t idx = long_cursor++ % w.longs.size();
            long_flight.push_back(
                submit(w.longs[idx], next_due, idx, long_opts));
            next_due += period;
            continue;
        }
        while (ring.size() - ring_done < w.window) {
            const size_t idx = cursor++ % w.pool.size();
            ring.push_back(submit(w.pool[idx], Clock::now(), idx, opts));
        }
        if (!open_loop || ready(ring.front())) {
            finish(ring.front(), false);
            ++ring_done;
        } else {
            bool any = false;
            for (InFlight &f : ring)
                if (ready(f)) {
                    finish(f, false);
                    ++ring_done;
                    any = true;
                }
            if (!any) {
                auto until = std::min(now + kPoll, end);
                if (open_loop)
                    until = std::min(until, next_due);
                ring.front().future.wait_until(until);
            }
        }
        while (!ring.empty() && ring.front().done) {
            ring.pop_front();
            --ring_done;
        }
        if (open_loop)
            pollLongs();
    }
    for (InFlight &f : ring)
        if (!f.done)
            finish(f, false);
    for (InFlight &f : long_flight)
        finish(f, true);
    return win;
}

double
setupWire(const Workload &w, bool traced, WireRig &rig)
{
    const auto t0 = Clock::now();
    std::vector<Engine *> shards;
    for (int i = 0; i < 2; ++i) {
        rig.engines.push_back(
            std::make_unique<Engine>(engineConfig(w, traced)));
        shards.push_back(rig.engines.back().get());
    }
    rig.server =
        std::make_unique<gmx::serve::AlignServer>(shards, serverConfig());
    if (gmx::Status s = rig.server->start(); !s.ok())
        throw std::runtime_error("server start failed: " + s.toString());
    for (unsigned c = 0; c < w.clients; ++c) {
        gmx::serve::ClientConfig cc;
        cc.port = rig.server->port();
        cc.client_id = "perfbench-" + std::to_string(c);
        cc.window = w.window;
        rig.clients.push_back(std::make_unique<gmx::serve::AlignClient>(cc));
        if (gmx::Status s = rig.clients.back()->connect(); !s.ok())
            throw std::runtime_error("connect failed: " + s.toString());
    }
    for (auto &client : rig.clients)
        for (const auto &out : client->alignBatch(w.warm, w.want_cigar))
            if (!out.ok())
                throw std::runtime_error("warm-up request failed: " +
                                         out.status().toString());
    return secondsBetween(t0, Clock::now());
}

namespace {

/** One wire client's closed loop; see runWire. */
void
clientLoop(gmx::serve::AlignClient &client, const Workload &w, unsigned c,
           Clock::time_point t0, Clock::time_point end, u64 seed,
           Ledger &ledger, Window &win, SpanLog *spans)
{
    struct Slot
    {
        u64 id = 0;
        size_t idx = 0;
        Clock::time_point sent;
        i64 send0 = 0, send1 = 0;
    };
    gmx::Prng rng(seed * 0x2545f4914f6cdd1dull + c + 1);
    std::vector<size_t> recent(w.repeat_span);
    size_t recent_n = 0, recent_head = 0;
    size_t next_distinct = c;
    std::vector<Slot> slots(2 * w.window);
    u64 next_id = 1;
    size_t inflight = 0;
    gmx::serve::AlignRequestFrame req;
    req.want_cigar = w.want_cigar;
    const u64 span_base = u64{c + 1} << 48;

    auto sendOne = [&]() -> bool {
        size_t idx;
        if (recent_n > 0 && rng.chance(w.repeat_frac)) {
            idx = recent[rng.below(recent_n)];
        } else {
            idx = next_distinct % w.pool.size();
            next_distinct += w.clients;
            recent[recent_head] = idx;
            recent_head = (recent_head + 1) % recent.size();
            recent_n = std::min(recent_n + 1, recent.size());
        }
        req.id = next_id++;
        req.pattern = w.pool[idx].pattern.str();
        req.text = w.pool[idx].text.str();
        Slot &s = slots[req.id % slots.size()];
        s.id = req.id;
        s.idx = idx;
        s.sent = Clock::now();
        s.send0 = ns(s.sent);
        const gmx::Status st = client.sendRequest(req);
        s.send1 = nowNs();
        ++win.attempted;
        if (!st.ok()) {
            noteFailure(win, st);
            return false;
        }
        ++inflight;
        return true;
    };
    auto readOne = [&]() -> bool {
        gmx::serve::AlignResponseFrame resp;
        const gmx::Status st = client.readResponse(resp);
        const auto seen = Clock::now();
        if (!st.ok()) {
            // The connection is gone: everything still in flight failed.
            win.failed += inflight;
            if (win.first_error.empty())
                win.first_error = st.toString();
            inflight = 0;
            return false;
        }
        Slot &s = slots[resp.id % slots.size()];
        if (s.id != resp.id) {
            noteFailure(win, gmx::Status::internal("unknown response id"));
            return false;
        }
        --inflight;
        const auto out = gmx::serve::toOutcome(resp);
        if (!out.ok()) {
            noteFailure(win, out.status());
            return true;
        }
        if (!ledger.note(s.idx, *out))
            noteWrong(win, s.idx);
        if (seen < end)
            win.noteOk(
                secondsBetween(t0, seen),
                std::chrono::duration<double, std::micro>(seen - s.sent)
                    .count());
        if (spans) {
            spans->add(span_base + s.id, Layer::Request, s.send0, ns(seen));
            spans->add(span_base + s.id, Layer::ClientSend, s.send0, s.send1);
        }
        return true;
    };

    bool alive = true;
    while (alive && Clock::now() < end) {
        while (alive && inflight < w.window)
            alive = sendOne();
        if (alive)
            alive = readOne();
    }
    while (alive && inflight > 0)
        alive = readOne();
}

} // namespace

Window
runWire(WireRig &rig, const Workload &w, double seconds, u64 seed,
        Ledger &ledger, SpanLog *spans)
{
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    std::vector<Window> wins;
    std::vector<SpanLog> logs;
    for (unsigned c = 0; c < w.clients; ++c) {
        wins.emplace_back(seed + c, seconds);
        logs.emplace_back(spans ? size_t{1} << 19 : 0);
    }
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < w.clients; ++c)
        threads.emplace_back([&, c] {
            clientLoop(*rig.clients[c], w, c, t0, end, seed, ledger,
                       wins[c], spans ? &logs[c] : nullptr);
        });
    for (auto &t : threads)
        t.join();
    Window win(seed, seconds);
    for (unsigned c = 0; c < w.clients; ++c) {
        win.merge(wins[c]);
        if (spans)
            for (const Span &s : logs[c].spans())
                spans->add(s.req, s.layer, s.t0_ns, s.t1_ns);
    }
    return win;
}

} // namespace perfbench
