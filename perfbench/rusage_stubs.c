/* Process figures the OCaml Unix library does not expose: getrusage's
   resident-set high-water mark and the process CPU-time clock. */

#include <sys/resource.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* ru_maxrss in kilobytes (Linux units) for RUSAGE_SELF (who = 0) or
   RUSAGE_CHILDREN (who = 1), or -1 if the call fails. */
value perfbench_maxrss_kb(value who)
{
  CAMLparam1(who);
  struct rusage ru;
  int w = Int_val(who) == 0 ? RUSAGE_SELF : RUSAGE_CHILDREN;
  if (getrusage(w, &ru) != 0) CAMLreturn(Val_long(-1));
  CAMLreturn(Val_long(ru.ru_maxrss));
}

/* CPU seconds used so far by this process, all its threads, at the
   clock's nanosecond resolution; nan if the clock cannot be read. */
value perfbench_cpu_s(value unit)
{
  CAMLparam1(unit);
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
    CAMLreturn(caml_copy_double(0.0 / 0.0));
  CAMLreturn(caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9));
}
