/* hostprof: a PC-sampling host profiler, loaded with LD_PRELOAD.

   Every 100 us of wall time (ITIMER_REAL) the process takes a SIGALRM,
   and the handler records the program counter the signal interrupted.
   At exit the samples go to hostprof.<pid>.pcs (native-endian 64-bit
   words) and a copy of /proc/self/maps to hostprof.<pid>.maps, both in
   the working directory; report.py turns them into a symbol profile.

       gcc -O2 -shared -fPIC -o hostprof.so hostprof.c
       LD_PRELOAD=$PWD/hostprof.so ./program args...
       python3 report.py hostprof.<pid>

   The handler runs on an alternate signal stack (sigaltstack,
   SA_ONSTACK).  OCaml 5 runs effect handlers' fibers on small stacks of
   its own, and a signal frame pushed onto one of those overflows it: a
   handler without SA_ONSTACK segfaults as soon as a sample lands inside
   a fiber.  The stack is installed for the thread that loads the
   library, which is the one an OCaml program's first domain runs on.

   The handler only stores into a preallocated buffer: it is
   async-signal-safe.  Samples past the buffer's end are counted, not
   stored, and the count is reported on stderr at exit. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 100
#define MAX_SAMPLES (1 << 21) /* 16 MiB, about 210 s at 10 kHz */

static uint64_t samples[MAX_SAMPLES];
static volatile sig_atomic_t n_samples;
static volatile sig_atomic_t n_dropped;
static char altstack[1 << 16];

static void on_alarm(int sig, siginfo_t *info, void *ctx) {
  ucontext_t *uc = ctx;
  uint64_t pc;
  (void)sig;
  (void)info;
#if defined(__x86_64__)
  pc = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pc = (uint64_t)uc->uc_mcontext.pc;
#else
#error "hostprof: unsupported architecture"
#endif
  if (n_samples < MAX_SAMPLES)
    samples[n_samples++] = pc;
  else
    n_dropped++;
}

__attribute__((constructor)) static void hostprof_start(void) {
  stack_t ss;
  struct sigaction sa;
  struct itimerval it;

  ss.ss_sp = altstack;
  ss.ss_size = sizeof altstack;
  ss.ss_flags = 0;
  if (sigaltstack(&ss, NULL) != 0) {
    perror("hostprof: sigaltstack");
    return;
  }
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_alarm;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, NULL) != 0) {
    perror("hostprof: sigaction");
    return;
  }
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = PERIOD_US;
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_REAL, &it, NULL) != 0)
    perror("hostprof: setitimer");
}

static void copy_file(const char *from, const char *to) {
  char buf[4096];
  size_t n;
  FILE *in = fopen(from, "r");
  FILE *out = fopen(to, "w");
  if (in != NULL && out != NULL)
    while ((n = fread(buf, 1, sizeof buf, in)) > 0)
      fwrite(buf, 1, n, out);
  if (in != NULL)
    fclose(in);
  if (out != NULL)
    fclose(out);
}

__attribute__((destructor)) static void hostprof_stop(void) {
  struct itimerval off;
  char path[64];
  FILE *f;
  long n;

  memset(&off, 0, sizeof off);
  setitimer(ITIMER_REAL, &off, NULL);
  n = n_samples;
  snprintf(path, sizeof path, "hostprof.%ld.pcs", (long)getpid());
  f = fopen(path, "wb");
  if (f == NULL) {
    perror("hostprof: fopen");
    return;
  }
  fwrite(samples, sizeof samples[0], (size_t)n, f);
  fclose(f);
  snprintf(path, sizeof path, "hostprof.%ld.maps", (long)getpid());
  copy_file("/proc/self/maps", path);
  fprintf(stderr, "hostprof: %ld samples (%ld dropped) in hostprof.%ld.*\n",
          n, (long)n_dropped, (long)getpid());
}
