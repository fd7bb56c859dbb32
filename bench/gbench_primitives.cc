/**
 * @file
 * google-benchmark microbenchmarks for VARAN's primitives: ring-buffer
 * publish/consume, Lamport clock ticks, pool allocation, BPF filter
 * evaluation and the length disassembler. These are the building-block
 * costs behind Figure 4's macro numbers.
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "arch/disasm.h"
#include "ring/event_pump.h"
#include "bpf/asm.h"
#include "bpf/interp.h"
#include "ring/lamport.h"
#include "ring/ring_buffer.h"
#include "shmem/pool.h"
#include "shmem/region.h"

namespace {

using namespace varan;

struct RingFixture {
    shmem::Region region;
    ring::RingBuffer ring;
    int consumer;

    RingFixture()
    {
        auto r = shmem::Region::create(4 << 20);
        region = std::move(r.value());
        shmem::Offset off =
            region.carve(ring::RingBuffer::bytesRequired(256));
        ring = ring::RingBuffer::initialize(&region, off, 256);
        consumer = ring.attachConsumer();
    }
};

void
BM_RingPublishConsume(benchmark::State &state)
{
    static RingFixture fixture;
    ring::Event e = {};
    e.type = ring::EventType::Syscall;
    ring::Event out;
    for (auto _ : state) {
        fixture.ring.publish(e);
        fixture.ring.poll(fixture.consumer, &out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPublishConsume);

/**
 * The batched fast path: publish a run of events with one head store +
 * one wake, drain them with one cursor advance. Compare items/s against
 * BM_RingPublishConsume to see the synchronization amortization; the
 * target is ≥2x single-event throughput at batch size 16.
 */
void
BM_RingPublishConsumeBatch(benchmark::State &state)
{
    static RingFixture fixture;
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    std::vector<ring::Event> in(batch);
    for (auto &e : in)
        e.type = ring::EventType::Syscall;
    std::vector<ring::Event> out(batch);
    for (auto _ : state) {
        fixture.ring.publishBatch(in);
        std::size_t got = 0;
        while (got < batch) {
            got += fixture.ring.pollBatch(fixture.consumer,
                                          out.data() + got, batch - got);
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_RingPublishConsumeBatch)->Arg(1)->Arg(16)->Arg(64);

/** SPSC queue batch ops (the pump's building block), same comparison. */
void
BM_SpscPushPopBatch(benchmark::State &state)
{
    static shmem::Region region = [] {
        auto r = shmem::Region::create(4 << 20);
        return std::move(r.value());
    }();
    static ring::SpscQueue queue = ring::SpscQueue::initialize(
        &region, region.carve(ring::SpscQueue::bytesRequired(256)), 256);
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    std::vector<ring::Event> in(batch);
    std::vector<ring::Event> out(batch);
    for (auto _ : state) {
        queue.tryPushBatch(in);
        std::size_t got = 0;
        while (got < batch)
            got += queue.tryPopBatch(out.data() + got, batch - got);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SpscPushPopBatch)->Arg(1)->Arg(16)->Arg(64);

void
BM_LamportTick(benchmark::State &state)
{
    static shmem::Region region = [] {
        auto r = shmem::Region::create(1 << 16);
        return std::move(r.value());
    }();
    static ring::LamportClock clock = ring::LamportClock::initialize(
        &region, region.carve(ring::LamportClock::bytesRequired()));
    for (auto _ : state)
        benchmark::DoNotOptimize(clock.tick());
}
BENCHMARK(BM_LamportTick);

void
BM_PoolAllocateRelease(benchmark::State &state)
{
    static shmem::Region region = [] {
        auto r = shmem::Region::create(16 << 20);
        return std::move(r.value());
    }();
    static shmem::PoolAllocator pool = [] {
        shmem::Offset hdr = region.carve(sizeof(shmem::PoolHeader));
        shmem::Offset begin = region.carve(64);
        return shmem::PoolAllocator::initialize(&region, hdr, begin,
                                                region.size());
    }();
    const std::size_t size = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        shmem::Offset p = pool.allocate(size);
        benchmark::DoNotOptimize(p);
        pool.release(p);
    }
}
BENCHMARK(BM_PoolAllocateRelease)->Arg(64)->Arg(512)->Arg(4096);

/**
 * The sharding payoff: T tuples allocating 256 B payloads.
 *
 * Contended = every thread fights over ONE flat allocator (one bucket
 * lock for the shared size class) — the pre-shard engine layout.
 * Sharded = thread t allocates from arena t of a ShardedPool — the
 * per-tuple layout. The acceptance target is ≥2x items/s for the
 * sharded variant at 4 threads.
 */
void
BM_PoolAllocateReleaseContended(benchmark::State &state)
{
    static shmem::Region region = [] {
        auto r = shmem::Region::create(64 << 20);
        return std::move(r.value());
    }();
    static shmem::PoolAllocator pool = [] {
        shmem::Offset hdr = region.carve(sizeof(shmem::PoolHeader));
        shmem::Offset begin = region.carve(64);
        return shmem::PoolAllocator::initialize(&region, hdr, begin,
                                                region.size());
    }();
    for (auto _ : state) {
        shmem::Offset p = pool.allocate(256);
        benchmark::DoNotOptimize(p);
        pool.release(p);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocateReleaseContended)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void
BM_ShardedPoolAllocateRelease(benchmark::State &state)
{
    static shmem::Region region = [] {
        auto r = shmem::Region::create(64 << 20);
        return std::move(r.value());
    }();
    static shmem::ShardedPool pool = [] {
        shmem::Offset hdr =
            region.carve(sizeof(shmem::ShardedPoolHeader));
        std::size_t bytes = 0;
        shmem::Offset begin = region.carveRemainder(&bytes);
        return shmem::ShardedPool::initialize(&region, hdr, begin,
                                              begin + bytes, 8);
    }();
    const auto shard = static_cast<std::uint32_t>(state.thread_index());
    for (auto _ : state) {
        shmem::Offset p = pool.allocate(shard, 256);
        benchmark::DoNotOptimize(p);
        pool.release(p);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedPoolAllocateRelease)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void
BM_BpfListing1(benchmark::State &state)
{
    static bpf::Program program = [] {
        auto r = bpf::assemble("ld event[0]\n"
                               "jeq #108, a\n"
                               "jeq #2, b\n"
                               "jmp bad\n"
                               "a: ld [0]\n"
                               "jeq #102, good\n"
                               "b: ld [0]\n"
                               "jeq #104, good\n"
                               "bad: ret #0\n"
                               "good: ret #0x7fff0000\n");
        return r.program;
    }();
    ring::Event event = {};
    event.nr = 108;
    bpf::FilterContext ctx;
    ctx.data.nr = 102;
    ctx.event = &event;
    for (auto _ : state)
        benchmark::DoNotOptimize(bpf::run(program, ctx));
}
BENCHMARK(BM_BpfListing1);

void
BM_DisasmScan(benchmark::State &state)
{
    // A realistic little code sequence with one syscall site.
    const std::uint8_t code[] = {
        0x55,                               // push rbp
        0x48, 0x89, 0xe5,                   // mov rbp, rsp
        0x48, 0xc7, 0xc0, 0x27, 0, 0, 0,    // mov rax, 39
        0x0f, 0x05,                         // syscall
        0x48, 0x89, 0xc2,                   // mov rdx, rax
        0x5d,                               // pop rbp
        0xc3,                               // ret
    };
    for (auto _ : state) {
        auto result = arch::scan(code, sizeof(code));
        benchmark::DoNotOptimize(result.sites.size());
    }
}
BENCHMARK(BM_DisasmScan);

} // namespace

BENCHMARK_MAIN();
