/**
 * @file
 * Microbenchmarks (google-benchmark) of the REAP data-plane data
 * structures: trace-file encode/decode, CRC32, working-set set
 * operations, and trace generation. These are the real in-process
 * costs of the reproduction's artifacts (not simulated time).
 */

#include <benchmark/benchmark.h>

#include "core/ws_file.hh"
#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "util/page_set.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace vhive;

namespace {

core::WorkingSetRecord
makeRecord(std::int64_t pages)
{
    core::WorkingSetRecord r;
    Rng rng(7, "bench");
    std::int64_t page = 512;
    for (std::int64_t i = 0; i < pages; ++i) {
        r.pages.push_back(page);
        page += rng.geometric(2.5);
    }
    return r;
}

void
BM_TraceEncode(benchmark::State &state)
{
    auto rec = makeRecord(state.range(0));
    for (auto _ : state) {
        auto bytes = core::TraceFileCodec::encode(rec);
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceEncode)->Arg(2048)->Arg(25000);

void
BM_TraceDecode(benchmark::State &state)
{
    auto rec = makeRecord(state.range(0));
    auto bytes = core::TraceFileCodec::encode(rec);
    for (auto _ : state) {
        auto decoded = core::TraceFileCodec::decode(bytes);
        benchmark::DoNotOptimize(decoded->pages.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceDecode)->Arg(2048)->Arg(25000);

void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(
        static_cast<size_t>(state.range(0)));
    Rng rng(3, "crc");
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::crc32(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20);

void
BM_WastedAgainst(benchmark::State &state)
{
    auto rec = makeRecord(state.range(0));
    PageSet touched;
    for (size_t i = 0; i < rec.pages.size() * 3 / 4; ++i) // 25% wasted
        touched.insert(rec.pages[i]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rec.wastedAgainst(touched));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WastedAgainst)->Arg(2048)->Arg(25000);

/**
 * One invocation trace per iteration. Arg 1 = 0: one generator for all
 * iterations, so the function's stable skeleton is memoized (the cost
 * of every call but a worker's first); 1: a fresh generator per
 * iteration, which pays for the skeleton too (the first call).
 */
void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &p = func::functionBench()[static_cast<size_t>(
        state.range(0))];
    const bool first_call = state.range(1) != 0;
    func::TraceGenerator gen(0xbeef);
    std::int64_t input = 0;
    for (auto _ : state) {
        auto trace = first_call
                         ? func::TraceGenerator(0xbeef).invocation(p, input++)
                         : gen.invocation(p, input++);
        benchmark::DoNotOptimize(trace.runs.data());
    }
    state.SetLabel(p.name + (first_call ? " first call" : " memoized"));
}
BENCHMARK(BM_TraceGeneration)
    ->ArgsProduct({{0, 6, 8}, {0, 1}});

void
BM_PercentileQuery(benchmark::State &state)
{
    Samples s;
    Rng rng(11, "p");
    for (int i = 0; i < 100000; ++i)
        s.add(rng.exponential(100.0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.percentile(99.0));
    }
}
BENCHMARK(BM_PercentileQuery);

} // namespace

BENCHMARK_MAIN();
