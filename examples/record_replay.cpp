/**
 * @file
 * Record-replay (paper section 5.4): record a live run's event stream
 * to disk with the artificial recorder follower, then replay the log
 * against a fresh instance — which reproduces the run bit for bit
 * without touching the outside world.
 *
 *   $ ./examples/record_replay
 */

#include <cstdio>
#include <fcntl.h>
#include <string>
#include <unistd.h>

#include "core/nvx.h"
#include "rr/log.h"
#include "rr/recorder.h"
#include "rr/replayer.h"
#include "syscalls/sys.h"

using namespace varan;

int
main()
{
    std::string log_path =
        "/tmp/varan-example-rr-" + std::to_string(::getpid()) + ".log";

    auto app = []() -> int {
        long pid = sys::vgetpid();
        long now = 0;
        sys::vtime(&now);
        long fd = sys::vopen("/dev/urandom", O_RDONLY);
        unsigned char entropy[8] = {};
        sys::vread(static_cast<int>(fd), entropy, sizeof(entropy));
        sys::vclose(static_cast<int>(fd));
        // Status depends on every non-deterministic input above.
        return static_cast<int>((pid ^ now ^ entropy[0]) & 0x3f);
    };

    int live_status;
    {
        std::printf("phase 1: recording a live run...\n");
        core::Nvx nvx;
        rr::LogSink recorder(nvx.region(), &nvx.layout(), log_path);
        if (!nvx.start({app},
                       [&](core::Nvx &) {
                           recorder.attachTaps();
                           recorder.startDraining();
                       })
                 .isOk()) {
            return 1;
        }
        auto results = nvx.wait();
        auto stats = recorder.finish();
        live_status = results[0].status;
        std::printf("  recorded %llu events (%llu payload bytes); live "
                    "status %d\n",
                    static_cast<unsigned long long>(
                        stats.ok() ? stats.value().events : 0),
                    static_cast<unsigned long long>(
                        stats.ok() ? stats.value().payload_bytes : 0),
                    live_status);
    }

    {
        std::printf("phase 2: replaying the log against a fresh "
                    "instance...\n");
        core::EngineConfig config;
        config.external_leader = true; // the log is the leader now
        core::Nvx nvx(config);
        if (!nvx.start({app}).isOk())
            return 1;
        rr::Replayer replayer(nvx.region(), &nvx.layout(), log_path);
        auto stats = replayer.replayAll();
        auto results = nvx.wait();
        std::printf("  replayed %llu events; replay status %d (%s)\n",
                    static_cast<unsigned long long>(
                        stats.ok() ? stats.value().events : 0),
                    results[0].status,
                    results[0].status == live_status
                        ? "matches the live run"
                        : "MISMATCH");
    }

    ::unlink(log_path.c_str());
    return 0;
}
