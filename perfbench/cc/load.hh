/**
 * @file
 * Load generators: the in-process closed loop (plus the open-loop
 * long-class schedule) over Engine::submit, and the wire closed loop
 * over AlignClient. Each drives one timed window and returns what it saw.
 */

#ifndef GMX_PERFBENCH_LOAD_HH
#define GMX_PERFBENCH_LOAD_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/prng.hh"
#include "engine/engine.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench {

/**
 * The first answer seen for each input index. Answers for one input
 * must never change, so every later answer is compared with the first;
 * the first ones are checked against the references after the run.
 */
class Ledger
{
  public:
    explicit Ledger(size_t inputs) : first_(inputs), digest_(inputs) {}

    /** Record @p r for input @p idx; false when it disagrees. */
    bool note(size_t idx, const gmx::align::AlignResult &r);

    const std::optional<gmx::align::AlignResult> &first(size_t idx) const
    {
        return first_[idx];
    }
    size_t size() const { return first_.size(); }

  private:
    std::vector<std::optional<gmx::align::AlignResult>> first_;
    std::vector<u64> digest_;
};

/** Fixed-size uniform sample of a stream (Algorithm R). */
class Reservoir
{
  public:
    static constexpr size_t kCapacity = 16384;

    explicit Reservoir(u64 seed) : rng_(seed) {}

    void add(double v);
    void merge(const Reservoir &o);
    const std::vector<double> &samples() const { return kept_; }
    u64 seen() const { return seen_; }

  private:
    gmx::Prng rng_;
    std::vector<double> kept_;
    u64 seen_ = 0;
};

/** Everything one timed window observed. */
struct Window
{
    /**
     * The window is cut into sub-windows, and the figures are a quantile
     * of the per-sub-window ones: the upper quartile of rates, the lower
     * quartile of latencies. On a shared virtual machine the host takes
     * CPU time from the guest in bursts, and a burst can only slow the
     * sub-windows it falls in, never speed them up; so the quiet quartile
     * follows the program's own speed, where the median moved with how
     * much of each run the host happened to take. Host load that lasts
     * the whole run still shows in full.
     */
    static constexpr size_t kSubWindows = 20;
    static constexpr double kQuietQuartile = 75;

    double seconds = 0;  //!< length of the timed window
    u64 attempted = 0;   //!< requests sent (including ones drained late)
    u64 failed = 0;      //!< requests answered with a non-Ok status
    u64 wrong = 0;       //!< answers that disagreed with an earlier one
    std::string first_error;

    /** Ok completions and latencies (µs) per sub-window. */
    std::vector<u64> ok_per_sub;
    std::vector<Reservoir> latency_us;

    std::vector<double> long_latency_ms; //!< from each long pair's due time
    std::vector<double> sched_lag_ms;    //!< how late each was submitted

    explicit Window(u64 seed, double secs);
    void merge(const Window &o);

    /** Closed-loop Ok completion at @p at_s into the window. */
    void noteOk(double at_s, double latency_us);
    u64 okInWindow() const;
    u64 latencySamples() const;

    double pairsPerSecond() const;      //!< upper quartile of sub-windows
    double latencyMs(double pct) const; //!< lower quartile of their pcts
};

/** Engine configuration every workload uses (traced or not). */
gmx::engine::EngineConfig engineConfig(const Workload &w, bool traced);

/** Server configuration of the wire workload. */
gmx::serve::AlignServerConfig serverConfig();

/** Trace sampling of traced engines: 1 in this many requests. */
inline constexpr u64 kTraceSampleEvery = 4;

/** An in-process engine plus the ids it has handed out so far. */
struct InprocRig
{
    std::unique_ptr<gmx::engine::Engine> engine;
    u64 submitted = 0; //!< the next submit gets engine id submitted + 1
};

/** Construct, start and warm an engine; returns set-up seconds. */
double setupInproc(const Workload &w, bool traced, InprocRig &rig);

/**
 * Run the closed loop (and the long-class schedule) for @p seconds.
 * With @p spans, records spans for every request the engine traces.
 */
Window runInproc(InprocRig &rig, const Workload &w, double seconds, u64 seed,
                 Ledger &ledger, Ledger &longs, SpanLog *spans);

/** Engines, server and connected clients of the wire workload. */
struct WireRig
{
    std::vector<std::unique_ptr<gmx::engine::Engine>> engines;
    std::unique_ptr<gmx::serve::AlignServer> server;
    std::vector<std::unique_ptr<gmx::serve::AlignClient>> clients;
};

/** Construct engines and server, start, connect, warm; set-up seconds. */
double setupWire(const Workload &w, bool traced, WireRig &rig);

/**
 * Run every client's closed loop for @p seconds. Clients use disjoint
 * pool indices, so they share @p ledger without locking.
 */
Window runWire(WireRig &rig, const Workload &w, double seconds, u64 seed,
               Ledger &ledger, SpanLog *spans);

} // namespace perfbench

#endif // GMX_PERFBENCH_LOAD_HH
