//===- Common.h - Shared pieces of liftbench --------------------*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload interface main.cpp runs, the correctness
/// counter every job reports to, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_PERFBENCH_COMMON_H
#define LIFT_PERFBENCH_COMMON_H

#include "ir/IR.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Nanoseconds on the steady clock, for ordering jobs and calibrations.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time the process has used so far, summed over its threads, in ms.
/// Jobs are timed in CPU time, not wall time: on a shared virtual machine
/// the wall clock also runs while the hypervisor gives the core to another
/// guest (steal, which the kernel keeps out of CPU time).
double cpuMs();
/// cpuMs() plus the CPU time of every child process the program has
/// waited for (the native backend's compiler runs), in ms.
double cpuMsWithChildren();

/// Host-speed calibration. On a shared virtual machine even CPU time is
/// not steady: the CPU time of a fixed loop drifts by 30% within seconds,
/// and a graph job's by up to 1.9x between runs a minute apart, with no
/// steal to show for it. So the timed figures are normalised: a CPU time
/// is scaled by NominalMs over the CPU time of a fixed calibration loop,
/// part of this benchmark and not of the library, run next to it. A
/// normalised millisecond is a millisecond on a host where that loop
/// takes NominalMs, and a change to the library moves it while a change
/// in host speed mostly does not.
namespace calib {
constexpr double NominalMs = 1.0;
/// Runs the loop once, logs its CPU time, and returns it.
double sample();
/// sample(), when at least 20 ms of wall time has passed since the last
/// one. Workloads call it before and after every timed job.
void sampleIfDue();
/// CPU times of every logged sample, in ms.
std::vector<double> samples();
/// The factor that normalises a CPU time measured between \p StartNs and
/// \p EndNs: NominalMs over the median of the two logged samples nearest
/// before the start and the two nearest after the end.
double factor(int64_t StartNs, int64_t EndNs);
} // namespace calib

/// Command-line settings shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Corrupt the output of the first timed job before it is checked, to
  /// prove the check counts it (used by the self-test).
  bool PlantWrong = false;
  /// Busy threads the untimed checking apparatus may use (nproc).
  int Threads = 1;
  /// Private scratch directory for this run, removed at exit.
  std::string RunDir;
};

/// Threads a timed job runs on. One: with a thread pool, the CPU time of
/// a job also counts how many pool threads happened to wake and share the
/// work, which moved graph-pipelines' medians by 25% between two quiet
/// runs. The untimed checking apparatus uses Options::Threads.
constexpr int JobThreads = 1;

/// Counts checked jobs. Thread-safe.
class Checker {
public:
  explicit Checker(bool PlantWrong) : Plant(PlantWrong) {}

  void pass() { ++Attempted; }
  void fail(const std::string &What);
  /// True exactly once, on the first timed job, when a wrong output is
  /// to be planted.
  bool plantNow() { return Plant.exchange(false); }

  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }
  std::vector<std::string> failures() const;

private:
  std::atomic<bool> Plant;
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  mutable std::mutex M;
  std::vector<std::string> Failures;
};

/// One timed job. Its times are raw; main() normalises them.
struct Job {
  size_t Program = 0;  ///< index into Workload::programs()
  double Ms = 0;       ///< CPU time, compile through output readback
  double KernelMs = 0; ///< CPU time of the part that executes kernels
  double WallMs = 0;   ///< wall time of the job, printed for reference
  int64_t StartNs = 0, EndNs = 0; ///< nowNs() at its start and end
};

/// Times one job into a Job, when given one: its raw CPU and wall time,
/// with a calibration sample taken, when due, before and after it.
class JobTimer {
public:
  explicit JobTimer(Job *J) : J(J) {
    if (!J)
      return;
    calib::sampleIfDue();
    J->StartNs = nowNs();
    Cpu0 = cpuMs();
  }
  /// Ends the job's timing; call once, before checking its output.
  void stop() {
    if (!J)
      return;
    J->Ms = cpuMs() - Cpu0;
    J->EndNs = nowNs();
    J->WallMs = static_cast<double>(J->EndNs - J->StartNs) / 1e6;
    calib::sampleIfDue();
  }

private:
  Job *J;
  double Cpu0 = 0;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// A named workload. main() calls prepare() once, setup() several
/// times (timed, reported as setup_s), then run() for the timed loop.
class Workload {
public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;
  /// Program (job class) names; Job::Program indexes this list.
  virtual std::vector<std::string> programs() const = 0;
  /// Jobs in one pass over the workload (counts are reported per pass).
  virtual size_t jobsPerPass() const = 0;
  /// One-time checking apparatus: golden outputs and reference costs.
  /// Not part of set-up time.
  virtual void prepare(Checker &C) = 0;
  /// The system's set-up, ending with one untimed warm-up pass whose
  /// outputs are checked. Called several times; the last one is kept.
  virtual void setup(Checker &C) = 0;
  /// Runs checked jobs until \p Seconds have passed and appends the timed
  /// ones to \p Jobs. Returns the wall time of the loop in seconds.
  virtual double run(double Seconds, Checker &C, std::vector<Job> &Jobs) = 0;
  /// Workload-specific end-to-end metrics (cost_units and
  /// rel_to_reference_geomean, and peak_rss_mb where the workload
  /// measures it itself), plus human-readable notes.
  virtual void endToEnd(std::vector<Metric> &Out,
                        std::vector<std::string> &Notes) = 0;
  /// Thread and connection counts, for the host fingerprint.
  virtual std::string loadShape() const = 0;
};

std::unique_ptr<Workload> makeSimSuite(const Options &O);
std::unique_ptr<Workload> makeNativeWarm(const Options &O);
std::unique_ptr<Workload> makeGraphPipelines(const Options &O);
std::unique_ptr<Workload> makeServeMix(const Options &O);

/// Allocates a job id for a timed job (ids start at 1; 0 means set-up).
uint64_t nextJobId();

/// The process's current resident set in MiB, from /proc/self/statm; 0
/// when it cannot be read.
double residentMiB();

/// Reads a whole file; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// Creates a fresh directory under \p Parent with the given name prefix.
std::string makePrivateDir(const std::string &Parent, const std::string &Tag);

/// Deterministic 64-bit generator (splitmix64), seeded from --seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

double median(std::vector<double> V);
/// A smoothed median: the mean of the samples from the 45th to the 55th
/// percentile. Whole passes hold equally many jobs of each program, so
/// the plain median of job times falls exactly between two programs and
/// is set by the two jobs on either side of that gap.
double midMean(std::vector<double> V);
double geomean(const std::vector<double> &V);
/// The \p WantPct percentile of \p V (nearest rank), or, when fewer than
/// \p MinBeyond samples lie beyond it, the value with exactly \p MinBeyond
/// samples beyond it. \p Pct and \p Beyond receive the percentile used
/// and the number of samples beyond it.
double tailLatency(std::vector<double> V, double WantPct, size_t MinBeyond,
                   double &Pct, size_t &Beyond);

/// Re-runs the phases codegen::compileChecked performs internally (type
/// inference, address space inference and, when \p Barriers, barrier
/// elimination) on a private clone, each in its own span, so the traced
/// run can split compile time by layer. Returns the phases' total in ms.
/// Traced runs only: the work is done twice.
double replayCompilePhases(const lift::ir::LambdaPtr &Program, bool Barriers);

/// True when \p Got and \p Want hold the same bits.
bool bitIdentical(const std::vector<float> &Got,
                  const std::vector<float> &Want);

} // namespace perfbench

#endif // LIFT_PERFBENCH_COMMON_H
