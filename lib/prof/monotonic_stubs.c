/* CLOCK_MONOTONIC for Monotonic.now: native code calls the unboxed,
   allocation-free entry point; bytecode boxes the same reading. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

double ic_prof_monotonic_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value ic_prof_monotonic_now_byte(value unit)
{
  return caml_copy_double(ic_prof_monotonic_now(unit));
}
