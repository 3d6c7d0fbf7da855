/**
 * @file
 * Guest sources. The E20 guests call a hot `kernel(config, i)` tens of
 * thousands of times with a semi-invariant config word; the seed picks
 * the config words. The
 * scale guest sweeps a large array over several passes, storing a
 * per-location value that stays put on most locations and changes
 * every pass on a seeded minority.
 */

#include "guests.hpp"

#include <stdexcept>

#include "core/instruction_profiler.hpp"
#include "core/memory_profiler.hpp"
#include "instrument/image.hpp"
#include "instrument/manager.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vpsim/assembler.hpp"

namespace vpb
{

namespace
{

/** Call kernel(config, i) `calls` times; iteration `switch_at`
 *  rewrites the config word (the phase shift). */
std::string
e20Main(std::uint64_t calls, std::uint64_t config,
        std::uint64_t switch_at, std::uint64_t config2)
{
    return vp::format(R"(
    .data
config: .word 0

    .text
    .proc main args=0
main:
    addi sp, sp, -16
    st   ra, 0(sp)
    li   s0, 0
    li   s1, %llu
    li   s4, %llu
    la   s2, config
    li   s3, 0
    li   t0, %llu
    st   t0, 0(s2)
loop:
    bge  s0, s1, done
    bne  s0, s4, no_switch
    li   t0, %llu
    st   t0, 0(s2)
no_switch:
    ld   a0, 0(s2)
    mov  a1, s0
    call kernel
    add  s3, s3, a0
    addi s0, s0, 1
    jmp  loop
done:
    mov  a0, s3
    syscall puti
    li   a0, 0
    ld   ra, 0(sp)
    addi sp, sp, 16
    syscall exit
    .endp
)",
                      static_cast<unsigned long long>(calls),
                      static_cast<unsigned long long>(switch_at),
                      static_cast<unsigned long long>(config),
                      static_cast<unsigned long long>(config2));
}

/** Re-derives a config checksum two ways that always agree; with a0
 *  bound both chains and the never-taken slow path fold away. */
const char *const kChecksumKernel = R"(
    .proc kernel args=2
kernel:
    mul  t0, a0, a0
    xori t1, t0, 23130
    srli t2, t1, 3
    add  t0, t1, t2
    muli t1, t0, 17
    xor  t2, t1, a0
    slli t3, t2, 2
    add  t0, t3, t1
    srli t1, t0, 5
    xor  t2, t1, t3
    muli t3, t2, 3
    add  t4, t3, t0
    muli t5, a0, 3
    muli t6, a0, 5
    add  t5, t5, t6
    muli t6, a0, 8
    sub  t5, t5, t6
    add  t5, t5, t4
    bne  t4, t5, slow
    mul  t0, a1, a1
    xori t1, a1, 51
    add  t2, t0, t1
    andi t3, t2, 255
    srli t4, t2, 2
    add  t5, t3, t4
    xor  t6, t5, a1
    add  a0, t6, a0
    ret
slow:
    li   t0, 0
    muli t1, a0, 99
    add  t0, t0, t1
    xori t0, t0, 4095
    mov  a0, t0
    ret
    .endp
)";

/** A compare ladder on the config picks one of eight arms; with a0
 *  bound the ladder folds to the one surviving arm. */
const char *const kDispatchKernel = R"(
    .proc kernel args=2
kernel:
    andi t9, a0, 7
    seqi t0, t9, 0
    bnez t0, arm0
    seqi t0, t9, 1
    bnez t0, arm1
    seqi t0, t9, 2
    bnez t0, arm2
    seqi t0, t9, 3
    bnez t0, arm3
    seqi t0, t9, 4
    bnez t0, arm4
    seqi t0, t9, 5
    bnez t0, arm5
    seqi t0, t9, 6
    bnez t0, arm6
arm7:
    muli t1, a1, 7
    xori t1, t1, 77
    add  a0, t1, a0
    ret
arm0:
    addi t1, a1, 11
    slli t1, t1, 1
    add  a0, t1, a0
    ret
arm1:
    muli t1, a1, 3
    srli t1, t1, 1
    add  a0, t1, a0
    ret
arm2:
    xori t1, a1, 29
    muli t1, t1, 5
    add  a0, t1, a0
    ret
arm3:
    andi t1, a1, 63
    muli t1, t1, 9
    add  a0, t1, a0
    ret
arm4:
    srli t1, a1, 2
    xori t1, t1, 13
    add  a0, t1, a0
    ret
arm5:
    muli t1, a1, 11
    andi t1, t1, 127
    add  a0, t1, a0
    ret
arm6:
    slli t1, a1, 3
    sub  t1, t1, a1
    add  a0, t1, a0
    ret
    .endp
)";

/**
 * The scale guest: `passes` sweeps over `locations` words. Each
 * element calls kernel(config, i mod 4096) for its base value (so no
 * instruction sees more than a few thousand distinct values, while
 * every location keeps a value of its own); elements whose
 * seeded hash falls under the threshold add the pass number, so they
 * vary while the rest stay invariant. Every element is also loaded
 * before it is stored, so the memory profiler sees both streams.
 */
std::string
scaleSource(const ScaleShape &shape, std::uint64_t config,
            std::uint64_t salt, unsigned threshold)
{
    return vp::format(R"(
    .data
arr:    .space %llu

    .text
    .proc main args=0
main:
    addi sp, sp, -16
    st   ra, 0(sp)
    li   s5, %llu
    li   s6, 0
    la   s2, arr
    li   s7, 0
    li   s3, %llu
pass_loop:
    bge  s6, s5, done
    li   s0, 0
    li   s1, %llu
elem_loop:
    bge  s0, s1, pass_end
    li   a0, %llu
    andi a1, s0, 4095
    call kernel
    muli t0, s0, -7046029254386353131
    xor  t0, t0, s3
    srli t0, t0, 58
    slti t1, t0, %u
    mul  t1, t1, s6
    add  a0, a0, t1
    slli t2, s0, 3
    add  t2, t2, s2
    ld   t3, 0(t2)
    add  s7, s7, t3
    st   a0, 0(t2)
    addi s0, s0, 1
    jmp  elem_loop
pass_end:
    addi s6, s6, 1
    jmp  pass_loop
done:
    mov  a0, s7
    syscall puti
    li   a0, 0
    ld   ra, 0(sp)
    addi sp, sp, 16
    syscall exit
    .endp

    .proc kernel args=2
kernel:
    muli t0, a0, 3
    muli t1, a0, 5
    add  t0, t0, t1
    muli t1, a0, 8
    sub  t0, t0, t1
    bnez t0, slow
    muli t2, a1, 2654435761
    srli t3, t2, 7
    xor  t4, t3, a1
    add  a0, t4, a0
    ret
slow:
    xori a0, a0, 4095
    ret
    .endp
)",
                      static_cast<unsigned long long>(shape.locations * 8),
                      static_cast<unsigned long long>(shape.passes),
                      static_cast<unsigned long long>(salt),
                      static_cast<unsigned long long>(shape.locations),
                      static_cast<unsigned long long>(config), threshold);
}

Guest
assembled(std::string name, Guest::Kind kind, std::string source,
          std::uint64_t config)
{
    Guest g;
    g.name = std::move(name);
    g.kind = kind;
    g.source = std::move(source);
    g.program = vpsim::assemble(g.source);
    g.config = config;
    return g;
}

} // namespace

void
Guest::inject(vpsim::Cpu &cpu) const
{
    if (workload)
        workload->inject(cpu, "train");
}

std::vector<Guest>
makeGuests(bool scale_guest, std::uint64_t seed, const ScaleShape &shape)
{
    vp::Rng rng(seed ^ 0x5EEDC0DE5EEDC0DEull);
    std::vector<Guest> guests;
    if (scale_guest) {
        const std::uint64_t config = 0x1000 + rng.below(0xE000);
        // The seed picks which locations vary; 5 of 64 hash buckets
        // (a 7.8 % minority) keeps the shape the same for every seed.
        const std::uint64_t salt = rng.next();
        guests.push_back(assembled("scale", Guest::Kind::Scale,
                                   scaleSource(shape, config, salt, 5),
                                   config));
        return guests;
    }
    for (const auto *w : workloads::allWorkloads()) {
        Guest g;
        g.name = w->name();
        g.kind = Guest::Kind::Suite;
        g.source = w->source();
        g.program = vpsim::assemble(g.source);
        g.workload = w;
        guests.push_back(std::move(g));
    }
    // The seed picks the config words; call counts, the phase-shift
    // point and the dispatch arm (config & 7) stay fixed, so every
    // seed gives guests of the same cost shape.
    constexpr std::uint64_t kCalls = 128000;
    const auto word = [&] { return 0x1000 + rng.below(0xE000); };
    const std::uint64_t gate = word();
    guests.push_back(assembled("checksum_gate", Guest::Kind::E20,
                               e20Main(kCalls, gate, kCalls + 1, gate) +
                                   kChecksumKernel,
                               gate));
    const std::uint64_t arm = (word() & ~std::uint64_t{7}) | 5;
    guests.push_back(assembled("dispatch_chain", Guest::Kind::E20,
                               e20Main(kCalls, arm, kCalls + 1, arm) +
                                   kDispatchKernel,
                               arm));
    const std::uint64_t first = word();
    std::uint64_t second = word();
    if (second == first)
        second ^= 0x40;
    guests.push_back(assembled("phase_shift", Guest::Kind::E20,
                               e20Main(kCalls, first, kCalls / 2, second) +
                                   kChecksumKernel,
                               first));
    return guests;
}

/** The snapshots the regime's profilers produce in set-up: the source
 *  of every delta summary the serve phases send. */
std::vector<core::ProfileSnapshot>
sourceSnapshots(const std::vector<Guest> &guests)
{
    std::vector<core::ProfileSnapshot> out;
    for (const auto &g : guests) {
        if (g.kind == Guest::Kind::E20)
            continue;
        vpsim::Cpu cpu(g.program);
        g.inject(cpu);
        instr::Image image(g.program);
        instr::InstrumentManager mgr(image);
        core::MemoryProfiler mprof;
        mprof.instrument(mgr);
        core::InstructionProfiler iprof(image);
        if (g.kind == Guest::Kind::Suite)
            iprof.profileAllWrites(mgr);
        mgr.attach(cpu);
        const auto r = cpu.run();
        if (!r.exited())
            throw std::runtime_error(g.name + ": set-up profiling run failed");
        out.push_back(core::ProfileSnapshot::fromMemoryProfiler(mprof));
        if (g.kind == Guest::Kind::Suite)
            out.push_back(
                core::ProfileSnapshot::fromInstructionProfiler(iprof));
    }
    return out;
}

} // namespace vpb
