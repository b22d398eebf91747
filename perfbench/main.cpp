//===- main.cpp - liftbench: the system benchmark -------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Runs one named workload through the library's public entry points and
// prints its metrics. See perfbench/README.md for the workloads, the
// metric table and the layer map.
//
//   liftbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--plant-wrong-output]
//
// With --trace 0 the last stdout line is a JSON object carrying every
// end-to-end metric, whose times are CPU times normalised to host speed
// (see calib in Common.h; raw CPU and wall-clock figures are printed above
// it for reference); with --trace 1 it carries every per-layer metric,
// taken from spans recorded around each layer's entry points, and the
// spans are written as Chrome trace-event JSON. Exit status: 0 when every
// job's output checked out, 1 when any failed, 2 on a usage or
// environment error (no JSON is printed then).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "native/Native.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char **environ;

using namespace perfbench;

namespace {

constexpr int MinSetupReps = 3;
constexpr int MaxSetupReps = 31;
constexpr double SetupBudgetS = 4.0;
/// Calibration samples taken on either side of each set-up.
constexpr int SetupCalSamples = 8;
/// job_cpu_tail_ms is p95: in a timed run every workload has at least ten
/// jobs beyond it, and p99 lands in rare spikes. It never reports a
/// percentile with fewer than MinTailBeyond jobs beyond it.
constexpr double TailPct = 95;
constexpr size_t MinTailBeyond = 10;
/// Host CPU steal above this share during the timed loop is flagged: on
/// a virtual machine, time stolen by other guests slows the wall-clock
/// figures printed for reference (the metrics are CPU times).
constexpr double StealWarn = 0.01;

int usage(const char *Why) {
  std::fprintf(stderr,
               "liftbench: %s\n"
               "usage: liftbench --workload sim-suite|native-warm|"
               "graph-pipelines|serve-mix\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out PATH] [--plant-wrong-output]\n",
               Why);
  return 2;
}

/// Environment variables that change what the library does; the numbers
/// would not be comparable with them set.
std::string forbiddenEnv() {
  static const char *Exact[] = {"LIFT_FAULT_SEED", "LIFT_MAX_STEPS",
                                "LIFT_TIMEOUT_MS", "LIFT_MAX_MEMORY",
                                "LIFT_THREADS"};
  for (char **E = environ; *E; ++E) {
    std::string Name(*E, std::strcspn(*E, "="));
    if (Name.rfind("LIFT_RETRY_", 0) == 0)
      return Name;
    for (const char *X : Exact)
      if (Name == X)
        return Name;
  }
  return "";
}

int cpuCount() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

/// Sets the CPU affinity of every thread of the process; threads created
/// later inherit it from their creator.
void setAffinityAll(const cpu_set_t &Set) {
  std::error_code Ec;
  for (const auto &E :
       std::filesystem::directory_iterator("/proc/self/task", Ec)) {
    pid_t Tid = static_cast<pid_t>(std::atoi(E.path().filename().c_str()));
    ::sched_setaffinity(Tid, sizeof(Set), &Set);
  }
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Cumulative CPU time of the whole host, from the first line of
/// /proc/stat, in clock ticks.
struct CpuTimes {
  bool Ok = false;
  uint64_t Steal = 0; ///< time the hypervisor ran other guests
  uint64_t Total = 0;
};

CpuTimes readCpuTimes() {
  CpuTimes T;
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return T;
  unsigned long long V[8] = {0};
  T.Ok = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                     &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8;
  std::fclose(F);
  for (unsigned long long X : V)
    T.Total += X;
  T.Steal = V[7];
  return T;
}

/// Steal as a share of all host CPU time between two readings; negative
/// when it cannot be read.
double stealShare(const CpuTimes &A, const CpuTimes &B) {
  if (!A.Ok || !B.Ok || B.Total <= A.Total)
    return -1;
  return static_cast<double>(B.Steal - A.Steal) /
         static_cast<double>(B.Total - A.Total);
}

std::string firstLineOf(const std::string &Cmd) {
  std::FILE *P = ::popen((Cmd + " 2>/dev/null").c_str(), "r");
  if (!P)
    return "?";
  char Buf[256] = {0};
  if (!std::fgets(Buf, sizeof(Buf), P))
    Buf[0] = '\0';
  ::pclose(P);
  std::string S = Buf;
  while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
    S.pop_back();
  return S.empty() ? "?" : S;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "sim-suite")
    return makeSimSuite(O);
  if (O.Workload == "native-warm")
    return makeNativeWarm(O);
  if (O.Workload == "graph-pipelines")
    return makeGraphPipelines(O);
  if (O.Workload == "serve-mix")
    return makeServeMix(O);
  return nullptr;
}

/// Per-program medians of the selected job times, then their geomean.
double programGeomean(const std::vector<Job> &Jobs, size_t NumPrograms,
                      double Job::*Field) {
  std::vector<std::vector<double>> By(NumPrograms);
  for (const Job &J : Jobs) {
    double V = J.*Field;
    if (V > 0)
      By[J.Program].push_back(V);
  }
  std::vector<double> Medians;
  for (const std::vector<double> &V : By)
    if (!V.empty())
      Medians.push_back(median(V));
  return geomean(Medians);
}

/// The middle of the job-time distribution, with every job counted at its
/// program's median time: midMean() of those values. Whole passes hold
/// equally many jobs of each program, so the median of the raw times sits
/// where two programs meet, and the slowest jobs of the faster program
/// and the fastest of the slower one, the noisiest of either, set it.
double programMidMean(const std::vector<Job> &Jobs, size_t NumPrograms,
                      double Job::*Field) {
  std::vector<std::vector<double>> By(NumPrograms);
  for (const Job &J : Jobs)
    By[J.Program].push_back(J.*Field);
  std::vector<double> Median(NumPrograms), V;
  for (size_t P = 0; P != NumPrograms; ++P)
    Median[P] = median(By[P]);
  for (const Job &J : Jobs)
    V.push_back(Median[J.Program]);
  return midMean(V);
}

/// \p Jobs with their CPU times normalised to host speed.
std::vector<Job> normalise(std::vector<Job> Jobs) {
  for (Job &J : Jobs) {
    double F = calib::factor(J.StartNs, J.EndNs);
    J.Ms *= F;
    J.KernelMs *= F;
  }
  return Jobs;
}

enum class Source {
  SpanMedian,
  SpanPerPass,
  Sample,
  SampleMax,
  PerPass,
  Ratio
};

struct LayerDef {
  const char *Name;
  const char *Unit;
  Source Src;
  const char *Key;      ///< span, sample or counter name
  const char *Den = ""; ///< Ratio: the denominator counter
};

/// Every per-layer metric, in output order. A layer a workload does not
/// call reports 0.
const LayerDef LayerDefs[] = {
    {"frontend.parse_ms", "ms", Source::SpanMedian, "frontend.parse"},
    {"frontend.parse_calls", "count", Source::SpanPerPass, "frontend.parse"},
    {"ir.typeinfer_ms", "ms", Source::SpanMedian, "ir.typeinfer"},
    {"passes.addrspace_ms", "ms", Source::SpanMedian, "passes.addrspace"},
    {"passes.barrier_ms", "ms", Source::SpanMedian, "passes.barrier"},
    {"passes.barriers_eliminated", "count", Source::PerPass,
     "passes.barriers_eliminated"},
    {"codegen.compile_ms", "ms", Source::SpanMedian, "codegen.compile"},
    {"codegen.self_ms", "ms", Source::Sample, "codegen.self_ms"},
    {"codegen.source_bytes", "bytes", Source::PerPass,
     "codegen.source_bytes"},
    {"codegen.loops_simplified", "count", Source::PerPass,
     "codegen.loops_simplified"},
    {"ocl.launch_ms", "ms", Source::SpanMedian, "ocl.launch"},
    {"ocl.launches", "count", Source::SpanPerPass, "ocl.launch"},
    {"ocl.readback_ms", "ms", Source::SpanMedian, "ocl.readback"},
    {"ocl.divmod_ops", "count", Source::PerPass, "ocl.divmod_ops"},
    {"ocl.global_accesses", "count", Source::PerPass, "ocl.global_accesses"},
    {"ocl.host_peak_bytes", "bytes", Source::SampleMax,
     "ocl.host_peak_bytes"},
    {"native.launch_ms", "ms", Source::SpanMedian, "native.launch"},
    {"native.kernel_ms", "ms", Source::Sample, "native.kernel_ms"},
    {"native.marshal_ms", "ms", Source::Sample, "native.marshal_ms"},
    {"native.other_ms", "ms", Source::Sample, "native.other_ms"},
    {"native.compile_ms", "ms", Source::Sample, "native.compile_ms"},
    {"native.cache_hit_frac", "frac", Source::Ratio, "native.cache_hits",
     "native.launches"},
    {"graph.parse_ms", "ms", Source::SpanMedian, "graph.parse"},
    {"graph.validate_ms", "ms", Source::SpanMedian, "graph.validate"},
    {"graph.run_ms", "ms", Source::SpanMedian, "graph.run"},
    {"graph.stages_run", "count", Source::PerPass, "graph.stages_run"},
    {"graph.ms_per_stage", "ms", Source::Sample, "graph.ms_per_stage"},
    {"graph.peak_host_bytes", "bytes", Source::SampleMax,
     "graph.peak_host_bytes"},
    {"graph.buffers_recycled", "count", Source::PerPass,
     "graph.buffers_recycled"},
    {"graph.iterate_trips", "count", Source::PerPass, "graph.iterate_trips"},
    {"service.roundtrip_ms", "ms", Source::SpanMedian, "service.roundtrip"},
    {"service.exec_ms", "ms", Source::SpanMedian, "service.exec"},
    {"service.transport_ms", "ms", Source::Sample, "service.transport_ms"},
    {"service.compiles", "count", Source::PerPass, "service.compiles"},
    {"service.dedupe_hit_frac", "frac", Source::Ratio, "service.dedupe_hits",
     "service.requests"},
    {"service.shed", "count", Source::PerPass, "service.shed"},
};

struct LayerReport {
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
};

/// Reduces the recorded spans, counters and samples to per-layer metrics.
LayerReport layerMetrics(double Passes) {
  std::vector<trace::SpanRec> All = trace::spans();
  std::vector<double> Self = trace::selfTimesMs(All);
  std::map<std::string, std::vector<double>> Dur;
  std::map<std::string, double> SelfByName;
  double JobTotal = 0, JobSelf = 0, MinSelf = 0;
  size_t JobsWithoutChildren = 0;
  std::map<uint64_t, size_t> ChildCount, IndexOf;
  for (size_t I = 0; I != All.size(); ++I) {
    ++ChildCount[All[I].Parent];
    IndexOf[All[I].Id] = I;
  }
  auto RootName = [&](size_t I) {
    while (All[I].Parent && IndexOf.count(All[I].Parent))
      I = IndexOf[All[I].Parent];
    return All[I].Name;
  };
  for (size_t I = 0; I != All.size(); ++I) {
    const trace::SpanRec &S = All[I];
    if (S.Job == 0)
      continue;
    double Ms = static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    Dur[S.Name].push_back(Ms);
    MinSelf = std::min(MinSelf, Self[I]);
    if (std::strcmp(S.Name, "job") == 0) {
      JobTotal += Ms;
      JobSelf += Self[I];
      if (!ChildCount.count(S.Id))
        ++JobsWithoutChildren;
    } else if (std::strcmp(RootName(I), "job") == 0) {
      SelfByName[S.Name] += Self[I];
    }
  }
  std::map<std::string, double> Counters = trace::counters();
  std::map<std::string, std::vector<double>> Samples = trace::samples();

  LayerReport R;
  for (const LayerDef &D : LayerDefs) {
    double V = 0;
    switch (D.Src) {
    case Source::SpanMedian:
      V = median(Dur[D.Key]);
      break;
    case Source::SpanPerPass:
      V = static_cast<double>(Dur[D.Key].size()) / Passes;
      break;
    case Source::Sample:
      V = median(Samples[D.Key]);
      break;
    case Source::SampleMax:
      for (double X : Samples[D.Key])
        V = std::max(V, X);
      break;
    case Source::PerPass:
      V = Counters[D.Key] / Passes;
      break;
    case Source::Ratio:
      V = Counters[D.Den] > 0 ? Counters[D.Key] / Counters[D.Den] : 0;
      break;
    }
    R.Metrics.push_back({D.Name, V, D.Unit});
  }
  double Unattributed = JobTotal > 0 ? JobSelf / JobTotal : 0;
  R.Metrics.push_back({"trace.unattributed_frac", Unattributed, "frac"});

  char Buf[160];
  for (const auto &[Name, Ms] : SelfByName) {
    std::snprintf(Buf, sizeof(Buf), "self time %-20s %7.3f%% of job time",
                  Name.c_str(), JobTotal > 0 ? 100 * Ms / JobTotal : 0);
    R.Notes.push_back(Buf);
  }
  std::snprintf(Buf, sizeof(Buf),
                "self time %-20s %7.3f%% of job time (outside every layer)",
                "job", 100 * Unattributed);
  R.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "span tree: %zu timed jobs, %zu without layer children, "
                "min self time %.6f ms",
                Dur["job"].size(), JobsWithoutChildren, MinSelf);
  R.Notes.push_back(Buf);
  return R;
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string TraceOut;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--plant-wrong-output") {
      O.PlantWrong = true;
      continue;
    }
    if (!(V = Value()))
      return usage(("missing value for " + A).c_str());
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      HaveSeconds = *V && !*End && O.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = !std::strcmp(V, "0") || !std::strcmp(V, "1");
      O.Trace = !std::strcmp(V, "1");
    } else if (A == "--trace-out") {
      TraceOut = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace (0 or 1) are required");
  if (std::string Bad = forbiddenEnv(); !Bad.empty()) {
    std::fprintf(stderr,
                 "liftbench: refusing to run with %s set; it changes "
                 "what the library does\n",
                 Bad.c_str());
    return 2;
  }
  O.Threads = cpuCount();
  if (!makeWorkload(O))
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  // Private scratch under the working directory, removed at exit.
  std::filesystem::create_directories(".bench_run");
  O.RunDir = makePrivateDir(".bench_run", O.Workload);
  std::unique_ptr<Workload> W = makeWorkload(O);

  Checker C(O.PlantWrong);
  std::vector<double> SetupS, SetupCpuS, SetupWallS;
  std::vector<Job> Jobs, Untraced;
  double TimedS = 0, PrepareS = 0, Steal = -1;
  std::vector<Metric> Extra;
  std::vector<std::string> Notes, Programs;
  size_t JobsPerPass = 1;
  int Status = 0;
  try {
    Clock::time_point T0 = Clock::now();
    W->prepare(C);
    PrepareS = msSince(T0) / 1000;
    // At least MinSetupReps set-ups, more while they add up to less than
    // SetupBudgetS, so short set-ups get a steady median too. The traced
    // run records set-up as well, so the trace file shows it; set-up spans
    // carry job id 0 and feed no medians.
    trace::setEnabled(O.Trace);
    double SetupTotal = 0;
    // setup_s is normalised CPU time, the native backend's compiler runs
    // included, with SetupCalSamples calibration samples on either side of
    // each set-up; the budget counts wall time.
    calib::sample(); // warms the calibration loop up
    for (int Rep = 0; Rep < MinSetupReps ||
                      (SetupTotal < SetupBudgetS && Rep < MaxSetupReps);
         ++Rep) {
      std::vector<double> Cal;
      for (int K = 0; K != SetupCalSamples; ++K)
        Cal.push_back(calib::sample());
      Clock::time_point S0 = Clock::now();
      double Cpu0 = cpuMsWithChildren();
      W->setup(C);
      SetupCpuS.push_back((cpuMsWithChildren() - Cpu0) / 1000);
      SetupWallS.push_back(msSince(S0) / 1000);
      SetupTotal += SetupWallS.back();
      for (int K = 0; K != SetupCalSamples; ++K)
        Cal.push_back(calib::sample());
      double CalMean = 0;
      for (double X : Cal)
        CalMean += X / static_cast<double>(Cal.size());
      SetupS.push_back(SetupCpuS.back() * calib::NominalMs / CalMean);
    }
    // The timed loop runs with every thread on the CPU the main thread is
    // on. serve-mix hands each request between three threads; spread over
    // the vCPUs, every hand-off wakes an idle vCPU, which costs CPU time
    // that varies with the host's load. Unpinned, its median request took
    // 0.095 ms of CPU and the run itself drove host steal to 12%; pinned,
    // 0.050 ms at under 2%. The other workloads' jobs run on one thread
    // and are pinned alike. Set-up stays unpinned: native-warm compiles
    // on every CPU.
    cpu_set_t All, One;
    CPU_ZERO(&One);
    bool Pinned = ::sched_getaffinity(0, sizeof(All), &All) == 0 &&
                  ::sched_getcpu() >= 0;
    if (Pinned) {
      CPU_SET(::sched_getcpu(), &One);
      setAffinityAll(One);
    }
    CpuTimes Cpu0 = readCpuTimes();
    if (O.Trace) {
      trace::setEnabled(false);
      W->run(O.Seconds / 2, C, Untraced);
      trace::setEnabled(true);
      TimedS = W->run(O.Seconds / 2, C, Jobs);
      trace::setEnabled(false);
    } else {
      TimedS = W->run(O.Seconds, C, Jobs);
    }
    calib::sample(); // the last job's sample after it
    Steal = stealShare(Cpu0, readCpuTimes());
    if (Pinned)
      setAffinityAll(All);
    W->endToEnd(Extra, Notes);
    Programs = W->programs();
    JobsPerPass = W->jobsPerPass();
    Notes.insert(Notes.begin(), "load: " + W->loadShape());
  } catch (std::exception &E) {
    std::fprintf(stderr, "liftbench: %s\n", E.what());
    Status = 2;
  }
  W.reset();
  std::error_code Ec;
  std::filesystem::remove_all(O.RunDir, Ec);
  std::filesystem::remove(".bench_run", Ec); // only when empty
  if (Status)
    return Status;

  const char *Cxx = std::getenv("LIFT_NATIVE_CXX");
  std::printf("host: nproc=%d, benchmark built by %s (%s), "
              "LIFT_NATIVE_CXX=%s, native toolchain: %s\n",
              O.Threads, __VERSION__, PERFBENCH_BUILD_TYPE,
              Cxx ? Cxx : "(unset)",
              lift::native::toolchainCompiler().empty()
                  ? "(none)"
                  : firstLineOf(lift::native::toolchainCompiler() +
                                " --version")
                        .c_str());
  std::printf("workload %s, seed %llu, %zu timed jobs in %.3f s; "
              "prepare %.3f s (untimed)\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              Jobs.size(), TimedS, PrepareS);
  if (Steal < 0)
    std::printf("host cpu steal during the timed loop: unknown\n");
  else
    std::printf("host cpu steal during the timed loop: %.2f%% of host CPU "
                "time%s\n",
                100 * Steal,
                Steal > StealWarn ? " (high: wall-clock figures of this run "
                                    "may be slow; rerun it)"
                                  : "");
  for (const std::string &N : Notes)
    std::printf("%s\n", N.c_str());

  // The raw times stay in Jobs for the reference lines; the metrics are
  // taken from the normalised copies.
  std::vector<Job> Norm = normalise(Jobs), NormUntraced = normalise(Untraced);
  {
    std::vector<std::vector<double>> By(Programs.size()), Cpu(By.size()),
        Wall(By.size());
    for (size_t I = 0; I != Jobs.size(); ++I) {
      By[Jobs[I].Program].push_back(Norm[I].Ms);
      Cpu[Jobs[I].Program].push_back(Jobs[I].Ms);
      Wall[Jobs[I].Program].push_back(Jobs[I].WallMs);
    }
    for (size_t P = 0; P != Programs.size(); ++P)
      if (!By[P].empty())
        std::printf("program %-28s %6zu jobs, median %10.3f ms normalised, "
                    "%10.3f ms cpu, %10.3f ms wall\n",
                    Programs[P].c_str(), By[P].size(), median(By[P]),
                    median(Cpu[P]), median(Wall[P]));
    std::vector<double> Cal = calib::samples();
    std::printf("calibration loop: %zu samples, median %.4f ms cpu, "
                "min %.4f, max %.4f (nominal %.4f)\n",
                Cal.size(), median(Cal),
                Cal.empty() ? 0 : *std::min_element(Cal.begin(), Cal.end()),
                Cal.empty() ? 0 : *std::max_element(Cal.begin(), Cal.end()),
                calib::NominalMs);
  }

  std::vector<Metric> Out;
  double Attempted =
      static_cast<double>(std::max<uint64_t>(1, C.attempted()));
  if (!O.Trace) {
    std::vector<double> Lat, WallLat;
    double NormS = 0, CpuS = 0;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      Lat.push_back(Norm[I].Ms);
      WallLat.push_back(Jobs[I].WallMs);
      NormS += Norm[I].Ms / 1000;
      CpuS += Jobs[I].Ms / 1000;
    }
    double Pct = 0, WallPct = 0;
    size_t Beyond = 0, WallBeyond = 0;
    double Tail = tailLatency(Lat, TailPct, MinTailBeyond, Pct, Beyond);
    double WallTail =
        tailLatency(WallLat, TailPct, MinTailBeyond, WallPct, WallBeyond);
    Out.push_back({"setup_s", median(SetupS), "s"});
    Out.push_back({"jobs_per_cpu_s",
                   NormS > 0 ? static_cast<double>(Jobs.size()) / NormS : 0,
                   "1/s"});
    Out.push_back({"job_cpu_p50_ms",
                   programMidMean(Norm, Programs.size(), &Job::Ms), "ms"});
    Out.push_back({"job_cpu_tail_ms", Tail, "ms"});
    Out.push_back({"ok_frac",
                   static_cast<double>(C.attempted() - C.failed()) / Attempted,
                   "frac"});
    // The process's peak resident set, unless the workload measured its
    // own (serve-mix).
    auto Own = std::find_if(Extra.begin(), Extra.end(), [](const Metric &M) {
      return M.Name == "peak_rss_mb";
    });
    Out.push_back({"peak_rss_mb",
                   Own != Extra.end() ? Own->Value : peakRssMiB(), "MiB"});
    if (Own != Extra.end())
      Extra.erase(Own);
    Out.push_back({"job_cpu_ms_geomean",
                   programGeomean(Norm, Programs.size(), &Job::Ms), "ms"});
    Out.push_back({"kernel_cpu_ms_geomean",
                   programGeomean(Norm, Programs.size(), &Job::KernelMs),
                   "ms"});
    Out.insert(Out.end(), Extra.begin(), Extra.end());
    std::printf("job_cpu_tail_ms is p%.2f of %zu jobs (%zu beyond it); "
                "setup reps (normalised):",
                Pct, Lat.size(), Beyond);
    for (double S : SetupS)
      std::printf(" %.3f", S);
    std::printf(" s; (cpu):");
    for (double S : SetupCpuS)
      std::printf(" %.3f", S);
    std::printf(" s; (wall):");
    for (double S : SetupWallS)
      std::printf(" %.3f", S);
    std::printf(" s; failed_frac %.6f\n",
                static_cast<double>(C.failed()) / Attempted);
    std::printf("raw cpu, for reference: jobs_per_cpu_s %.6g, job_cpu_p50_ms "
                "%.6g, job_cpu_ms_geomean %.6g\n",
                CpuS > 0 ? static_cast<double>(Jobs.size()) / CpuS : 0,
                programMidMean(Jobs, Programs.size(), &Job::Ms),
                programGeomean(Jobs, Programs.size(), &Job::Ms));
    std::printf("wall clock, for reference: jobs_per_s %.6g, latency_p50_ms "
                "%.6g, latency_tail_ms %.6g, job_ms_geomean %.6g, cpu/wall "
                "%.3f\n",
                TimedS > 0 ? static_cast<double>(Jobs.size()) / TimedS : 0,
                programMidMean(Jobs, Programs.size(), &Job::WallMs), WallTail,
                programGeomean(Jobs, Programs.size(), &Job::WallMs),
                TimedS > 0 ? CpuS / TimedS : 0);
  } else {
    double Passes = std::max(1e-9, static_cast<double>(Jobs.size()) /
                                       static_cast<double>(JobsPerPass));
    LayerReport L = layerMetrics(Passes);
    for (const std::string &N : L.Notes)
      std::printf("%s\n", N.c_str());
    Out = L.Metrics;
    // Jobs per CPU-second of job time, as jobs_per_cpu_s.
    auto PerCpuS = [](const std::vector<Job> &V) {
      double S = 0;
      for (const Job &J : V)
        S += J.Ms / 1000;
      return S > 0 ? static_cast<double>(V.size()) / S : 0;
    };
    double Plain = PerCpuS(NormUntraced);
    double Traced = PerCpuS(Norm);
    Out.push_back({"trace.jobs_per_cpu_s_untraced", Plain, "1/s"});
    Out.push_back({"trace.jobs_per_cpu_s_traced", Traced, "1/s"});
    Out.push_back({"trace.overhead_frac", Plain > 0 ? 1 - Traced / Plain : 0,
                   "frac"});
    if (TraceOut.empty()) {
      std::filesystem::create_directories(".bench_out");
      TraceOut = ".bench_out/trace-" + O.Workload + "-seed" +
                 std::to_string(O.Seed) + ".json";
    }
    std::map<std::string, std::string> Meta = {
        {"workload", O.Workload},
        {"seed", std::to_string(O.Seed)},
        {"nproc", std::to_string(O.Threads)},
        {"load", Notes.front()},
        {"compiler", __VERSION__},
        {"build", PERFBENCH_BUILD_TYPE}};
    if (!trace::writeChromeTrace(TraceOut, trace::spans(), Meta)) {
      std::fprintf(stderr, "liftbench: cannot write %s\n", TraceOut.c_str());
      return 2;
    }
    std::printf("trace written to %s; tracing overhead %.2f%% "
                "(%.3f jobs per CPU-second traced vs %.3f untraced)\n",
                TraceOut.c_str(), 100 * (Plain > 0 ? 1 - Traced / Plain : 0),
                Traced, Plain);
  }
  for (const Metric &M : Out)
    std::printf("metric %-28s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const std::string &F : C.failures())
    std::printf("FAILED: %s\n", F.c_str());
  bool Correct = C.failed() == 0;
  std::fflush(stdout);
  printJson(Correct, std::max<uint64_t>(1, C.attempted()), C.failed(), Out);
  return Correct ? 0 : 1;
}
