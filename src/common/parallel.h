#pragma once

// Thin OpenMP shims so call sites stay readable and the library still builds
// without OpenMP — in which case width queries delegate to the exec thread
// pool (the library's own scheduling primitive), so serial builds still
// scale across the hardware instead of hard-returning 1.

#include <cstdint>

#if defined(MRC_HAVE_OPENMP)
#include <omp.h>
#else
namespace mrc::exec {
int hardware_threads();  // exec/thread_pool.h, sans its <thread>/<future> weight
}
#endif

namespace mrc {

[[nodiscard]] inline int max_threads() {
#if defined(MRC_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return exec::hardware_threads();
#endif
}

}  // namespace mrc
