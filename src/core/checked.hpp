// checked.hpp — the one switch for the checked build.
//
// The FLIT_CHECKED CMake option (the `checked` preset) defines
// FLIT_CHECKED, which compiles in every debugging hook at once:
// PersistCheck's shadow-state tracking (pmem/persist_check.hpp), LinCheck's
// history recorder and lifetime analyzer (check/lincheck.hpp), and the
// fp_inject() failpoint sites, seeded `bug.*` sites included
// (core/failpoint.hpp). Off, each hook folds to nothing, so default and
// benchmark builds compile the same hot paths.
#pragma once

namespace flit::core {

#if defined(FLIT_CHECKED)
inline constexpr bool kChecked = true;
#else
inline constexpr bool kChecked = false;
#endif

}  // namespace flit::core
