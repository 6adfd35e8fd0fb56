/**
 * @file
 * Pinned outputs: the digest and simulated results each workload must
 * reproduce at a pinned seed.
 *
 * A pin file holds one pin per line, "seed workload key value", where
 * key is "digest" (value in hex) or a sim_* metric (value printed with
 * 17 significant digits, so it reads back bit-exact). '#' starts a
 * comment. Seeds without pins are checked for invariants only.
 */

#ifndef PERFBENCH_PINS_HH
#define PERFBENCH_PINS_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

/** The seed whose outputs are pinned. */
constexpr std::uint64_t defaultSeed = 42;

class Pins
{
  public:
    /** @return false with @p error set when the file is unreadable. */
    bool load(const std::string &path, std::string &error);

    /** Every way @p o differs from its pins (empty: all match). */
    std::vector<std::string> compare(std::uint64_t seed,
                                     const std::string &workload,
                                     const Outcome &o) const;

  private:
    /** (seed, workload, key) -> value text. */
    std::map<std::tuple<std::uint64_t, std::string, std::string>,
             std::string>
        values;
};

/** The pin lines for @p o. */
std::string formatPins(std::uint64_t seed, const std::string &workload,
                       const Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_PINS_HH
