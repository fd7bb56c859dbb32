/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload <syscall-null|syscall-io|kv-server|remote-replica>
 *             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
 *
 * Prints a table of metrics, then one JSON line: with --trace 0 the
 * end-to-end metrics, with --trace 1 the per-layer ones. Exits 1 when
 * any output mismatches its oracle. See perfbench/README.md.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<syscall-null|syscall-io|kv-server|remote-replica> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *value = argv[++i];
        if (!std::strcmp(flag, "--workload"))
            args.workload = value;
        else if (!std::strcmp(flag, "--seed"))
            args.seed = std::strtoull(value, nullptr, 10);
        else if (!std::strcmp(flag, "--seconds"))
            args.seconds = std::strtod(value, nullptr);
        else if (!std::strcmp(flag, "--trace"))
            args.trace = std::strcmp(value, "0") != 0;
        else if (!std::strcmp(flag, "--workdir"))
            args.workdir = value;
        else
            usage("unknown flag");
    }
    const bool syscall = args.workload == "syscall-null" ||
                         args.workload == "syscall-io" ||
                         args.workload == "remote-replica";
    if (!syscall && args.workload != "kv-server")
        usage("unknown workload");
    if (!(args.seconds > 0) || args.seconds > 600)
        usage("--seconds out of range");

    // Clients write into sockets the server may already have closed.
    std::signal(SIGPIPE, SIG_IGN);
    calibrateTsc();
    try {
        RunOutput out =
            syscall ? runSyscallWorkload(args) : runKvWorkload(args);
        printOutput(args, out);
        return out.correct && out.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
