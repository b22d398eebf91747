//===- Suite.cpp - The sim-suite and native-warm workloads ----------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Both workloads run the paper's 12 benchmarks (Table 1) at Large size,
// every stage compiled with the Full configuration (BE+CFS+AAS), one job
// at a time in seeded shuffled passes. A job is one benchmark: compile
// every stage, launch it, read the output back.
//
//   sim-suite    launches on the simulator with one pool thread. The
//                interpreter does almost all the work.
//   native-warm  launches on the native backend in exact mode with one
//                OpenMP thread. Set-up builds every shared object cold
//                into a fresh private cache; the timed loop is warm.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "codegen/Compiler.h"
#include "native/Native.h"
#include "suite/Benchmark.h"

#include <cmath>
#include <cstdlib>
#include <thread>

using namespace lift;
using namespace perfbench;

namespace {

enum class Backend { Sim, Native };

struct JobResult {
  std::vector<float> Output;
  double Cost = 0;
  double KernelMs = 0;
};

/// One job over already-materialised buffers. Returns an error message,
/// empty on success.
std::string runCase(const bench::BenchmarkCase &Case,
                    std::vector<ocl::Buffer> &Bufs, Backend B, int Threads,
                    JobResult &Out) {
  ocl::resetHostBytesHighWater();
  DiagnosticEngine Engine;
  for (const bench::Stage &S : Case.LiftStages) {
    codegen::CompilerOptions Opts;
    Opts.GlobalSize = S.Global;
    Opts.LocalSize = S.Local;
    Opts.Threads = Threads;

    double PhasesMs =
        trace::enabled() ? replayCompilePhases(S.Program, true) : 0;
    trace::Span CompileSpan("codegen.compile");
    Expected<codegen::CompiledKernel> K =
        codegen::compileChecked(S.Program, Opts, Engine);
    double CompileMs = CompileSpan.end();
    if (!K)
      return "compile failed: " + Engine.render();
    trace::sample("codegen.self_ms", CompileMs - PhasesMs);
    trace::count("passes.barriers_eliminated", K->BarriersEliminated);
    trace::count("codegen.source_bytes", static_cast<double>(K->Source.size()));
    trace::count("codegen.loops_simplified", K->LoopsSimplified);

    std::vector<ocl::Buffer *> Args;
    for (size_t Idx : S.Buffers)
      Args.push_back(&Bufs[Idx]);
    ocl::LaunchConfig Cfg;
    Cfg.Global = S.Global;
    Cfg.Local = S.Local;
    Cfg.Threads = Threads;

    double Cpu0 = cpuMs();
    if (B == Backend::Sim) {
      trace::Span LaunchSpan("ocl.launch");
      Expected<ocl::LaunchResult> R =
          ocl::launchChecked(*K, Args, S.Sizes, Cfg, Engine);
      LaunchSpan.end();
      Out.KernelMs += cpuMs() - Cpu0;
      if (!R)
        return "launch failed: " + Engine.render();
      Out.Cost += R->Cost.cost();
      trace::count("ocl.divmod_ops", static_cast<double>(R->Cost.DivModOps));
      trace::count("ocl.global_accesses",
                   static_cast<double>(R->Cost.GlobalAccesses));
    } else {
      trace::Span LaunchSpan("native.launch");
      Expected<native::NativeLaunchResult> R = native::launchNativeChecked(
          *K, Args, S.Sizes, Cfg, Engine, native::NativeMode::Exact);
      double LaunchMs = LaunchSpan.end();
      Out.KernelMs += cpuMs() - Cpu0;
      if (!R)
        return "native launch failed: " + Engine.render();
      trace::sample("native.kernel_ms", R->WallMs);
      trace::sample("native.marshal_ms", R->MarshalMs);
      trace::sample("native.other_ms",
                    LaunchMs - R->CompileMs - R->MarshalMs - R->WallMs);
      if (R->CompileMs > 0)
        trace::sample("native.compile_ms", R->CompileMs, /*Always=*/true);
      trace::count("native.launches", 1);
      trace::count("native.cache_hits", R->CacheHit ? 1 : 0);
    }
  }
  trace::Span Readback("ocl.readback");
  Out.Output = Bufs[Case.OutputBuffer].toFlatFloats();
  Readback.end();
  trace::sample("ocl.host_peak_bytes",
                static_cast<double>(ocl::hostBytesHighWater()));
  return "";
}

/// Relative error against the host golden reference, as the suite's own
/// validation computes it.
double maxRelError(const std::vector<float> &Got,
                   const std::vector<float> &Want) {
  if (Got.size() != Want.size())
    return INFINITY;
  double Max = 0;
  for (size_t I = 0; I != Got.size(); ++I) {
    double W = Want[I];
    double Err = std::fabs(static_cast<double>(Got[I]) - W) /
                 std::fmax(1.0, std::fabs(W));
    if (!(Err <= Max))
      Max = std::isnan(Err) ? INFINITY : Err;
  }
  return Max;
}

std::vector<ocl::Buffer> materialize(const bench::BenchmarkCase &Case) {
  std::vector<ocl::Buffer> Bufs;
  for (const bench::BufferInit &B : Case.WorkingBuffers)
    Bufs.push_back(B.materialize());
  return Bufs;
}

class SuiteWorkload : public Workload {
public:
  SuiteWorkload(const Options &O, Backend B) : O(O), B(B) {}

  std::vector<std::string> programs() const override {
    std::vector<std::string> Names;
    for (const bench::BenchmarkCase &C : Cases)
      Names.push_back(C.Name);
    return Names;
  }
  size_t jobsPerPass() const override { return Cases.size(); }

  void prepare(Checker &C) override {
    Cases = bench::allBenchmarks(/*Large=*/true);
    if (B == Backend::Sim) {
      // The Fig. 8 base: the hand-written kernels on the same device.
      bench::RunOptions Run;
      Run.Threads = O.Threads;
      for (const bench::BenchmarkCase &Case : Cases) {
        DiagnosticEngine Engine;
        Expected<bench::Outcome> R =
            bench::runReferenceChecked(Case, Run, Engine);
        RefCost.push_back(R ? R->Cost.cost() : 0);
        if (!R || !R->Valid)
          C.fail(Case.Name + ": reference kernel failed");
      }
      // One pass at nproc threads fixes each case's expected cost, so the
      // timed jobs, on one thread, also check that the cost model does not
      // depend on the thread count.
      Cost.assign(Cases.size(), NAN);
      for (size_t I = 0; I != Cases.size(); ++I)
        runChecked(I, O.Threads, C, /*JobId=*/0);
      return;
    }
    // native-warm checks every output against the simulator's.
    for (const bench::BenchmarkCase &Case : Cases) {
      std::vector<ocl::Buffer> Bufs = materialize(Case);
      JobResult R;
      std::string Err = runCase(Case, Bufs, Backend::Sim, O.Threads, R);
      if (!Err.empty())
        C.fail(Case.Name + ": simulator golden run: " + Err);
      SimOutput.push_back(std::move(R.Output));
      Cost.push_back(R.Cost);
    }
  }

  void setup(Checker &C) override {
    if (B == Backend::Native)
      coldBuild(C);
    // The warm-up pass, in suite order.
    for (size_t I = 0; I != Cases.size(); ++I)
      runChecked(I, JobThreads, C, /*JobId=*/0);
  }

  double run(double Seconds, Checker &C, std::vector<Job> &Jobs) override {
    Rng R(O.Seed * 7919 + Jobs.size());
    std::vector<size_t> Order(Cases.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    // Whole passes only, so every program is equally represented.
    Clock::time_point T0 = Clock::now();
    do {
      R.shuffle(Order);
      for (size_t I : Order) {
        Job J;
        J.Program = I;
        runChecked(I, JobThreads, C, nextJobId(), &J);
        Jobs.push_back(J);
      }
    } while (msSince(T0) < Seconds * 1000);
    return msSince(T0) / 1000;
  }

  void endToEnd(std::vector<Metric> &Out,
                std::vector<std::string> &Notes) override {
    double Total = 0;
    std::vector<double> Rel;
    for (size_t I = 0; I != Cases.size(); ++I) {
      if (std::isnan(Cost[I]))
        continue; // never passed; already counted as failed
      Total += Cost[I];
      if (B == Backend::Sim)
        Rel.push_back(RefCost[I] / Cost[I]);
    }
    Out.push_back({"cost_units", Total, "units"});
    if (B == Backend::Sim) {
      Out.push_back({"rel_to_reference_geomean", geomean(Rel), "ratio"});
    } else {
      Out.push_back({"rel_to_reference_geomean", 1.0, "ratio"});
      Notes.push_back("rel_to_reference_geomean: not measured on native-warm "
                      "(no reference kernels run); reported as 1");
      Notes.push_back("cost_units: simulator cost of the same kernels, from "
                      "the golden run");
    }
  }

  std::string loadShape() const override {
    return std::string(B == Backend::Sim ? "simulator" : "native/exact") +
           " threads=" + std::to_string(JobThreads) +
           ", closed loop, 1 job in flight";
  }

private:
  /// Builds every shared object cold into a fresh private cache, nproc
  /// benchmarks at a time with one OpenMP thread each.
  void coldBuild(Checker &C) {
    std::string Dir = makePrivateDir(O.RunDir, "native-cache");
    ::setenv("LIFT_NATIVE_CACHE_DIR", Dir.c_str(), 1);
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Workers;
    for (int W = 0; W < O.Threads; ++W)
      Workers.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Cases.size();) {
          try {
            runChecked(I, 1, C, /*JobId=*/0);
          } catch (std::exception &E) {
            C.fail(Cases[I].Name + ": " + E.what());
          }
        }
      });
    for (std::thread &T : Workers)
      T.join();
  }

  /// Materialises inputs, runs one job and checks it; only the job itself
  /// is timed, into \p Out. \p JobId is 0 for set-up jobs.
  void runChecked(size_t I, int Threads, Checker &C, uint64_t JobId,
                  Job *Out = nullptr) {
    const bench::BenchmarkCase &Case = Cases[I];
    std::vector<ocl::Buffer> Bufs = materialize(Case);
    JobResult R;
    JobTimer Timer(Out);
    std::string Err;
    {
      trace::Span JobSpan("job", JobId);
      Err = runCase(Case, Bufs, B, Threads, R);
    }
    Timer.stop();
    if (Out)
      Out->KernelMs = R.KernelMs;
    if (JobId && !R.Output.empty() && C.plantNow())
      R.Output[0] += 1.0f;

    if (!Err.empty())
      C.fail(Case.Name + ": " + Err);
    else if (B == Backend::Native && !bitIdentical(R.Output, SimOutput[I]))
      C.fail(Case.Name + ": native output differs from the simulator's");
    else if (B == Backend::Sim && !checkSim(I, R))
      C.fail(Case.Name + ": " + LastSimError);
    else
      C.pass();
  }

  bool checkSim(size_t I, const JobResult &R) {
    const bench::BenchmarkCase &Case = Cases[I];
    double Err = maxRelError(R.Output, Case.Expected);
    if (!(Err < Case.Tolerance)) {
      LastSimError = "output off the host reference by " +
                     std::to_string(Err) + " (tolerance " +
                     std::to_string(Case.Tolerance) + ")";
      return false;
    }
    if (std::isnan(Cost[I])) {
      Cost[I] = R.Cost;
      return true;
    }
    if (R.Cost != Cost[I]) {
      LastSimError = "cost " + std::to_string(R.Cost) +
                     " differs from the first pass's " +
                     std::to_string(Cost[I]);
      return false;
    }
    return true;
  }

  Options O;
  Backend B;
  std::vector<bench::BenchmarkCase> Cases;
  std::vector<double> RefCost;              // sim-suite
  std::vector<double> Cost; // per case, simulator units; NaN until known
  std::vector<std::vector<float>> SimOutput; // native-warm
  std::string LastSimError;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeSimSuite(const Options &O) {
  return std::make_unique<SuiteWorkload>(O, Backend::Sim);
}

std::unique_ptr<Workload> perfbench::makeNativeWarm(const Options &O) {
  return std::make_unique<SuiteWorkload>(O, Backend::Native);
}
