/**
 * @file
 * The correctness check, run after the timed window.
 */

#ifndef GMX_PERFBENCH_CHECK_HH
#define GMX_PERFBENCH_CHECK_HH

#include <string>
#include <vector>

#include "load.hh"
#include "workload.hh"

namespace perfbench {

/** About how many inputs per workload are checked against nwDistance. */
inline constexpr size_t kNwSample = 128;

/**
 * The pool inputs compared with nwDistance: every input of every k-th
 * run of w.shapes consecutive inputs, so each shape is sampled equally
 * (about kNwSample inputs in all).
 */
std::vector<size_t> nwSample(const Workload &w);

struct CheckReport
{
    u64 checked = 0; //!< answers compared with a reference
    u64 wrong = 0;   //!< answers that failed their comparison
    std::string first_error;
};

/**
 * Check the first answer recorded for each input (later answers were
 * already compared with it as they arrived):
 *  - every CIGAR passes align::verifyResult;
 *  - the distance equals align::nwDistance on the nwSample inputs;
 *  - every long-class answer equals a standalone run of the cascade's
 *    long-class registry kernel on the same pair.
 */
CheckReport checkAnswers(const Workload &w, const Ledger &shorts,
                         const Ledger &longs);

} // namespace perfbench

#endif // GMX_PERFBENCH_CHECK_HH
