/**
 * @file
 * RAII pin of the SIMD kernel selection for tests that run one code
 * path under several ISAs through util::simdOverride().
 */

#ifndef EDB_TESTS_TESTING_ISA_GUARD_H
#define EDB_TESTS_TESTING_ISA_GUARD_H

#include "util/simd.h"

namespace edb::testgen {

/** Restores the pre-test ISA selection no matter how the test exits. */
class IsaGuard
{
  public:
    IsaGuard() : saved_(util::simdIsa()) {}
    ~IsaGuard() { util::simdOverride(saved_); }

  private:
    util::SimdIsa saved_;
};

} // namespace edb::testgen

#endif // EDB_TESTS_TESTING_ISA_GUARD_H
