#include "workload.hh"

#include "sequence/generator.hh"

namespace perfbench {

namespace {

/** One pair shape: length and divergence. */
struct Shape
{
    size_t length;
    double error_rate;
};

/** Interleave @p shapes over @p count pairs (pair i gets shape i % k). */
std::vector<gmx::seq::SequencePair>
mixed(gmx::seq::Generator &gen, size_t count, const std::vector<Shape> &shapes)
{
    std::vector<gmx::seq::SequencePair> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        const Shape &s = shapes[i % shapes.size()];
        out.push_back(gen.pair(s.length, s.error_rate));
    }
    return out;
}

/**
 * Set-up warm-up pairs: enough work that set-up time is not dominated by
 * thread start-up jitter.
 */
constexpr size_t kWarmPairs = 4096;

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "screen150", "divergent_mix", "cigar_long", "wire_dup"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, u64 seed)
{
    const auto &names = workloadNames();
    size_t index = 0;
    while (index < names.size() && names[index] != name)
        ++index;
    if (index == names.size())
        return std::nullopt;

    // Each workload draws from its own stream of the seed, so adding or
    // reordering workloads never changes another workload's inputs.
    gmx::seq::Generator gen(seed * 0x9e3779b97f4a7c15ull + index + 1);
    const std::vector<Shape> screen = {{150, 0.005}, {150, 0.01}};

    Workload w;
    w.name = name;
    if (name == "screen150") {
        w.pool = mixed(gen, 4096, screen);
        w.shapes = screen.size();
        w.warm = mixed(gen, kWarmPairs, screen);
    } else if (name == "divergent_mix") {
        const std::vector<Shape> shapes = {
            {150, 0.005}, {300, 0.05}, {300, 0.25}};
        w.pool = mixed(gen, 4096, shapes);
        w.shapes = shapes.size();
        w.warm = mixed(gen, kWarmPairs, shapes);
    } else if (name == "cigar_long") {
        const std::vector<Shape> shapes = {
            {150, 0.02}, {300, 0.05}, {300, 0.10}, {1000, 0.05}};
        w.want_cigar = true;
        // Few enough in flight that the dispatcher is never throttled
        // when a long pair arrives: with 4-8, short requests queued
        // behind it were fused into its pool task and waited for it,
        // leaving p99 to flip between two modes from run to run.
        w.window = 2;
        w.pool = mixed(gen, 1024, shapes);
        w.shapes = shapes.size();
        w.warm = mixed(gen, 64, shapes);
        // Eight distinct long pairs, so how costly a seed's long pairs
        // happen to be averages out across seeds.
        w.longs = mixed(gen, 8, {{100000, 0.10}});
        w.memory_budget = size_t{64} << 20;
    } else { // wire_dup
        w.wire = true;
        w.window = 32;
        w.clients = 2;
        w.repeat_frac = 0.2;
        w.repeat_span = 4096;
        // Larger than the router's dedup cache many times over, so a
        // distinct pair is evicted long before the pool cycles back.
        w.pool = mixed(gen, 16384, screen);
        w.shapes = screen.size();
        // A quarter of the in-process warm-up: with the full amount, what
        // five set-ups' warm batches left behind made peak RSS vary by
        // 13% from run to run.
        w.warm = mixed(gen, kWarmPairs / 4, screen);
    }
    return w;
}

std::string
serializeInputs(const Workload &w)
{
    std::string out;
    for (const auto *set : {&w.pool, &w.warm, &w.longs}) {
        for (const auto &p : *set) {
            out += p.pattern.str();
            out += '|';
            out += p.text.str();
            out += '\n';
        }
        out += "--\n";
    }
    return out;
}

u64
cigarDigest(const gmx::align::AlignResult &r)
{
    u64 h = 0xcbf29ce484222325ull;
    for (gmx::align::Op op : r.cigar.ops()) {
        h ^= static_cast<u64>(op);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
