/**
 * @file
 * The compute guests: the ten bundled programs, the three E20 guests
 * (seeded config words) and the seeded scale guest.
 */

#ifndef VPBENCH_GUESTS_HPP
#define VPBENCH_GUESTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "vpsim/cpu.hpp"
#include "vpsim/program.hpp"
#include "workloads/workload.hpp"

namespace vpb
{

struct Guest
{
    enum class Kind
    {
        Suite, ///< a bundled program on its train input
        E20,   ///< an adaptive-specialization guest
        Scale, ///< the seeded many-location guest
    };

    std::string name;
    Kind kind = Kind::Suite;
    std::string source;
    vpsim::Program program;
    const workloads::Workload *workload = nullptr;
    /** The first-phase config word a0 carries into `kernel`. */
    std::uint64_t config = 0;

    /** Write the guest's input after Cpu::reset() (Suite only). */
    void inject(vpsim::Cpu &cpu) const;
    /** Whether the adaptive cell runs on this guest. */
    bool adaptive() const { return kind != Kind::Suite; }
};

/** Guest sizes of the scale guest. */
struct ScaleShape
{
    std::uint64_t locations = 131072;
    std::uint64_t passes = 2;
};

/**
 * Assemble the compute guests of a regime from the seed: the ten
 * bundled programs and the three E20 guests, or the scale guest alone.
 */
std::vector<Guest> makeGuests(bool scale_guest, std::uint64_t seed,
                              const ScaleShape &shape = {});

/** Profile the non-E20 guests once (memory profile, plus a full
 *  instruction profile of the bundled programs): the snapshots every
 *  delta summary of the serve phases is sliced from. */
std::vector<core::ProfileSnapshot>
sourceSnapshots(const std::vector<Guest> &guests);

} // namespace vpb

#endif // VPBENCH_GUESTS_HPP
