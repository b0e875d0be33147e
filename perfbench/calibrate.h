// Host-speed calibration. The benchmark shares its host with other
// tenants, whose load moves this process's speed by tens of percent over
// seconds to minutes. Two fixed kernels that use none of the simulator's
// code are timed before a round whenever the last timing is older than
// 100 ms: a core-bound one and a memory-bound one. Host times are divided
// by the slowdown of the kernel they resemble, so that drift common to
// both cancels: the traffic phase (guest and load generator, whose
// byte-wise send deque dominates iperf) by the core kernel's, boot and
// teardown (zeroed page allocation and its release) by the memory
// kernel's.
#ifndef FLEXOS_PERFBENCH_CALIBRATE_H_
#define FLEXOS_PERFBENCH_CALIBRATE_H_

namespace perfbench {

// Kernel times, in seconds, rounded down from the fastest timings seen on a
// 4-core Xeon VM at 2.1 GHz: the reference for MeasureSlowdown. Never
// change them; host metrics are comparable only between builds of the
// benchmark with the same values.
inline constexpr double kCoreNominalS = 0.010;
inline constexpr double kMemoryNominalS = 0.005;

// Kernel time over nominal time: higher when the host runs slower.
struct Slowdown {
  double core = 1;    // A byte deque and an ordered map.
  double memory = 1;  // Allocate 8192 zeroed 4 KiB pages, then free them.
};

Slowdown MeasureSlowdown();

}  // namespace perfbench

#endif  // FLEXOS_PERFBENCH_CALIBRATE_H_
