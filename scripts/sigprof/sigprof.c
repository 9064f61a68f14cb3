/* A sampling profiler for an image with no perf: LD_PRELOAD this library and
 * the process samples its own program counter on a CPU-time timer.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   PROF_OUT=prof.txt LD_PRELOAD=./sigprof.so <program> <args>
 *
 * At exit $PROF_OUT holds one "pc <hex> <hex>" line per sample — the
 * interrupted program counter and the word at the interrupted stack pointer
 * — then the file mappings of /proc/self/maps, which fold.py needs to
 * subtract the load base of a position-independent executable. In a leaf
 * function that has not pushed a frame (libc's memmove, say) that word is
 * the return address into its caller, which is how fold.py names the
 * caller of a sample that landed in a shared library. The timer asks for 997 samples per
 * CPU-second; the kernel tick (often 250 Hz) caps what is delivered. Profile
 * one single-threaded process that does not exec (`simctl run … --jobs 1`):
 * an interval timer survives execve, the handler does not.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
#define INTERVAL_US (1000000 / 997)
static unsigned long samples[MAX_SAMPLES];
static unsigned long stack_tops[MAX_SAMPLES];
static volatile size_t count;

static void on_sigprof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    size_t at = count;
    if (at < MAX_SAMPLES) {
        const greg_t *regs = ((ucontext_t *)uc)->uc_mcontext.gregs;
        samples[at] = regs[REG_RIP];
        stack_tops[at] = *(const unsigned long *)regs[REG_RSP];
        count = at + 1;
    }
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    for (size_t i = 0; i < count; i++)
        fprintf(out, "pc %lx %lx\n", samples[i], stack_tops[i]);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        if (strchr(line, '/'))
            fprintf(out, "map %s", line);
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
