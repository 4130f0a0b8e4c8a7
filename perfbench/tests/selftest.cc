/**
 * @file
 * Self-test of the benchmark's own arithmetic and determinism:
 * statistics helpers against hand-computed cases, span self times, and
 * seed → inputs → cascade work being a pure function of the seed.
 * Exits nonzero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "check.hh"
#include "layers.hh"
#include "spans.hh"
#include "stats.hh"
#include "workload.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) < 1e-9,
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

void
testMedian()
{
    expectNear(median({}), 0.0, "median of nothing");
    expectNear(median({3}), 3.0, "median of one");
    expectNear(median({1, 3, 2}), 2.0, "median of odd count");
    expectNear(median({4, 1, 3, 2}), 2.5, "median of even count");
    expectNear(median({5, 5, 1, 9}), 5.0, "median with ties");
}

void
testPercentiles()
{
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    expectNear(percentile(hundred, 50), 50, "p50 of 1..100");
    expectNear(percentile(hundred, 99), 99, "p99 of 1..100");
    expectNear(percentile(hundred, 100), 100, "p100 of 1..100");
    expectNear(percentile({7, 1, 3}, 50), 3, "p50 of three");
    expectNear(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9,
               "p90 of 1..10");

    expect(samplesBeyond(99, 1000) == 10, "p99 of 1000 has 10 beyond");
    expect(samplesBeyond(99, 999) == 9, "p99 of 999 has 9 beyond");
    expectNear(tailPercentile(9), 0, "9 samples support no percentile");
    expectNear(tailPercentile(20), 50, "20 samples support p50");
    expectNear(tailPercentile(99), 50, "99 samples support p50 only");
    expectNear(tailPercentile(100), 90, "100 samples support p90");
    expectNear(tailPercentile(999), 90, "999 samples support p90");
    expectNear(tailPercentile(1000), 99, "1000 samples support p99");
    expectNear(tailPercentile(10000), 99.9, "10000 samples support p99.9");
}

void
testRatio()
{
    const Ratio quarter{1, 4};
    expectNear(quarter.value(), 0.25, "ratio value");
    expect(quarter.str() == "0.2500 (1/4)", "ratio prints its base: " + quarter.str());
    const Ratio none{3, 0};
    expectNear(none.value(), 0.0, "ratio over an empty base");
    expect(none.str() == "0.0000 (3/0)", "empty base still printed: " + none.str());
}

void
testSelfTimes()
{
    // request [0,100]; submit [0,10] and queue [5,30] overlap; service
    // [30,90] holds cascade [40,80]. Self times: request 100 - |[0,90]|
    // = 10, submit 10, queue 25, service 60 - 40 = 20, cascade 40.
    std::vector<Span> spans = {
        {1, Layer::Cascade, 40'000, 80'000}, {1, Layer::Request, 0, 100'000},
        {2, Layer::Request, 0, 5'000},       {1, Layer::Submit, 0, 10'000},
        {1, Layer::Queue, 5'000, 30'000},    {1, Layer::Service, 30'000, 90'000},
    };
    const SelfTimes st = selfTimes(spans);
    expectNear(st.sum_us[size_t(Layer::Request)], 10 + 5, "request self time");
    expect(st.spans[size_t(Layer::Request)] == 2, "two request spans");
    expectNear(st.meanUs(Layer::Submit), 10, "submit self time");
    expectNear(st.meanUs(Layer::Queue), 25, "queue self time");
    expectNear(st.meanUs(Layer::Service), 20, "service self time");
    expectNear(st.meanUs(Layer::Cascade), 40, "cascade self time");
}

void
testDeterminism()
{
    constexpr double kNoLimit = std::numeric_limits<double>::infinity();
    for (const std::string &name : workloadNames()) {
        const auto a = makeWorkload(name, 7), b = makeWorkload(name, 7),
                   c = makeWorkload(name, 8);
        expect(a && b && c, name + ": workload exists");
        if (!a || !b || !c)
            continue;
        expect(serializeInputs(*a) == serializeInputs(*b),
               name + ": same seed gives byte-identical inputs");
        expect(serializeInputs(*a) != serializeInputs(*c),
               name + ": another seed gives other inputs");
        const CascadeReplay ra = replayCascade(*a, 64, kNoLimit);
        const CascadeReplay rb = replayCascade(*b, 64, kNoLimit);
        expect(ra.requests == 64 && rb.requests == 64,
               name + ": replay covers 64 requests");
        expect(ra.attempts == rb.attempts,
               name + ": same seed gives identical tier attempts");
        expect(ra.cells == rb.cells,
               name + ": same seed gives identical tier cells");
    }
    expect(!makeWorkload("no-such-workload", 1), "unknown workload refused");
}

void
testNwSampleCoversShapes()
{
    for (const std::string &name : workloadNames()) {
        const auto w = makeWorkload(name, 7);
        if (!w)
            continue;
        std::vector<size_t> per_shape(w->shapes);
        for (size_t i : nwSample(*w)) {
            expect(i < w->pool.size(), name + ": sample index in the pool");
            ++per_shape[i % w->shapes];
        }
        for (size_t s = 0; s < w->shapes; ++s)
            expect(per_shape[s] >= kNwSample / w->shapes / 2 &&
                       per_shape[s] == per_shape[0],
                   name + ": shape " + std::to_string(s) + " sampled " +
                       std::to_string(per_shape[s]) + " times");
    }
}

} // namespace

int
main()
{
    testMedian();
    testPercentiles();
    testRatio();
    testSelfTimes();
    testDeterminism();
    testNwSampleCoversShapes();
    std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
    return failures ? 1 : 0;
}
