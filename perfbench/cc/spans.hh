/**
 * @file
 * In-memory spans for the traced run. The benchmark records spans
 * around its own calls into each layer and adds the engine's trace
 * events for the same request; nothing is written until the run ends.
 */

#ifndef GMX_PERFBENCH_SPANS_HH
#define GMX_PERFBENCH_SPANS_HH

#include <array>
#include <string>
#include <vector>

#include "common/types.hh"
#include "engine/trace.hh"

namespace perfbench {

using gmx::i64;
using gmx::u64;

/** Span layers; each has one fixed parent (Request is the root). */
enum class Layer : unsigned char {
    Request,    //!< send/submit (or due time) until the result is seen
    Submit,     //!< Engine::submit call
    Queue,      //!< engine Enqueue -> Dispatch
    Service,    //!< engine Dispatch -> Complete
    Cascade,    //!< first tier attempt -> Complete (inside Service)
    ClientSend, //!< AlignClient::sendRequest call
    ClientWait, //!< engine Complete until the load thread sees the result
};
inline constexpr size_t kLayerCount = 7;

const char *layerName(Layer l);

/** The layer whose span encloses @p l's (Request for the root itself). */
Layer parentOf(Layer l);

struct Span
{
    u64 req = 0; //!< benchmark request id, shared by one request's spans
    Layer layer = Layer::Request;
    i64 t0_ns = 0; //!< steady_clock time since its epoch
    i64 t1_ns = 0;
};

/** Bounded span store: stops recording at its capacity. */
class SpanLog
{
  public:
    explicit SpanLog(size_t capacity = 0) { spans_.reserve(capacity); }

    void add(u64 req, Layer layer, i64 t0_ns, i64 t1_ns)
    {
        if (spans_.size() < spans_.capacity())
            spans_.push_back({req, layer, t0_ns, t1_ns});
    }

    std::vector<Span> &spans() { return spans_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** Per-layer totals of self time: span minus the part its children cover. */
struct SelfTimes
{
    std::array<double, kLayerCount> sum_us{};
    std::array<u64, kLayerCount> spans{};

    double meanUs(Layer l) const
    {
        const size_t i = static_cast<size_t>(l);
        return spans[i] ? sum_us[i] / static_cast<double>(spans[i]) : 0.0;
    }
};

/** Self times of every span, grouping spans by request id. */
SelfTimes selfTimes(std::vector<Span> spans);

/** One engine request's trace events, as steady_clock nanoseconds. */
struct EngineTimes
{
    i64 enqueue = -1;
    i64 dispatch = -1;
    i64 first_attempt = -1;
    i64 complete = -1;

    bool whole() const { return enqueue >= 0 && dispatch >= 0 && complete >= 0; }
};

/** An engine trace ring indexed by request id. */
struct EngineTrace
{
    u64 base = 0; //!< smallest id in the ring
    std::vector<EngineTimes> times;

    /** The events of request @p id, or null when the ring lacks it. */
    const EngineTimes *find(u64 id) const
    {
        return id >= base && id - base < times.size() ? &times[id - base]
                                                      : nullptr;
    }
};

/** Index @p rec's spans by id, rebased from its epoch onto steady_clock. */
EngineTrace engineTrace(const gmx::engine::TraceRecorder &rec);

/** steady_clock::now() in nanoseconds since the clock's epoch. */
i64 nowNs();

/** Write @p spans as JSON lines to @p path; false on I/O failure. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // GMX_PERFBENCH_SPANS_HH
