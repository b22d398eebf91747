//===- Graphs.cpp - The graph-pipelines workload --------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The four committed examples/graph/*.liftg pipelines, each parsed,
// validated and run with `liftc --graph` defaults (simulator, liveness
// buffer reuse, one stage at a time), but on one pool thread. One job is
// one whole graph; jobs run one at a time in seeded shuffled passes.
// Every output must be bit-identical to an nproc-thread run made before
// set-up.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "frontend/ILParser.h"
#include "graph/GraphExec.h"

#include <stdexcept>

using namespace lift;
using namespace perfbench;

namespace {

const char *const GraphNames[] = {"stencil_chain", "matmul_bias", "jacobi",
                                  "kmeans_loop"};

struct GraphJob {
  graph::GraphRunResult Result;
  double RunMs = 0;    ///< runGraph wall time
  double RunCpuMs = 0; ///< runGraph CPU time
  std::string Error;
};

/// Parse, validate and run one graph, each step in its own span.
GraphJob runGraphSource(const std::string &Source,
                        const graph::GraphRunOptions &GO) {
  GraphJob J;
  DiagnosticEngine Engine;
  trace::Span ParseSpan("graph.parse");
  Expected<graph::Graph> G = graph::parseGraphChecked(Source, Engine);
  ParseSpan.end();
  if (!G) {
    J.Error = Engine.render();
    return J;
  }
  if (trace::enabled()) {
    // validateGraph parses every kernel block internally; replay those
    // parses so the frontend's share is visible.
    trace::Span Replay("trace.replay");
    for (const graph::KernelDecl &K : G->Kernels) {
      trace::Span S("frontend.parse");
      DiagnosticEngine Scratch;
      frontend::parseILChecked(K.Source, Scratch);
    }
  }
  trace::Span ValidateSpan("graph.validate");
  Expected<graph::ValidatedGraph> VG = graph::validateGraph(*G, Engine);
  ValidateSpan.end();
  if (!VG) {
    J.Error = Engine.render();
    return J;
  }
  Clock::time_point T0 = Clock::now();
  double Cpu0 = cpuMs();
  trace::Span RunSpan("graph.run");
  Expected<graph::GraphRunResult> R = graph::runGraph(*VG, GO, Engine);
  RunSpan.end();
  J.RunCpuMs = cpuMs() - Cpu0;
  J.RunMs = msSince(T0);
  if (!R) {
    J.Error = Engine.render();
    return J;
  }
  J.Result = std::move(*R);
  uint64_t Trips = 0;
  for (const graph::IterateRunInfo &I : J.Result.Iterates)
    Trips += I.Trips;
  trace::count("graph.stages_run", static_cast<double>(J.Result.StagesRun));
  trace::count("graph.buffers_recycled",
               static_cast<double>(J.Result.BuffersRecycled));
  trace::count("graph.iterate_trips", static_cast<double>(Trips));
  if (J.Result.StagesRun)
    trace::sample("graph.ms_per_stage",
                  J.RunMs / static_cast<double>(J.Result.StagesRun));
  trace::sample("graph.peak_host_bytes",
                static_cast<double>(J.Result.PeakHostBytes));
  return J;
}

class GraphWorkload : public Workload {
public:
  explicit GraphWorkload(const Options &O) : O(O) {}

  std::vector<std::string> programs() const override {
    return {std::begin(GraphNames), std::end(GraphNames)};
  }
  size_t jobsPerPass() const override { return std::size(GraphNames); }

  void prepare(Checker &C) override {
    for (const char *Name : GraphNames) {
      std::string Path = std::string("examples/graph/") + Name + ".liftg";
      std::string Src;
      if (!readFile(Path, Src))
        throw std::runtime_error("cannot read " + Path);
      Sources.push_back(Src);
    }
    // liftc --graph defaults, with the input seed drawn from --seed.
    Opts.InputSeed = 1 + O.Seed % 1000003;
    Opts.Threads = JobThreads;
    graph::GraphRunOptions Pooled = Opts;
    Pooled.Threads = O.Threads;
    for (size_t I = 0; I != Sources.size(); ++I) {
      GraphJob J = runGraphSource(Sources[I], Pooled);
      if (!J.Error.empty())
        C.fail(std::string(GraphNames[I]) + ": nproc-thread run: " +
               J.Error);
      Golden.push_back(J.Result.Outputs);
      Cost.push_back(J.Result.TotalCost);
    }
  }

  void setup(Checker &C) override {
    for (size_t I = 0; I != Sources.size(); ++I)
      runChecked(I, C, /*JobId=*/0);
  }

  double run(double Seconds, Checker &C, std::vector<Job> &Jobs) override {
    Rng R(O.Seed * 104729 + Jobs.size());
    std::vector<size_t> Order(Sources.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    Clock::time_point T0 = Clock::now();
    do {
      R.shuffle(Order);
      for (size_t I : Order) {
        Job J;
        J.Program = I;
        runChecked(I, C, nextJobId(), &J);
        Jobs.push_back(J);
      }
    } while (msSince(T0) < Seconds * 1000);
    return msSince(T0) / 1000;
  }

  void endToEnd(std::vector<Metric> &Out,
                std::vector<std::string> &Notes) override {
    double Total = 0;
    for (double X : Cost)
      Total += X;
    Out.push_back({"cost_units", Total, "units"});
    Out.push_back({"rel_to_reference_geomean", 1.0, "ratio"});
    Notes.push_back("rel_to_reference_geomean: graphs have no reference "
                    "kernels; reported as 1");
    Notes.push_back("kernel_cpu_ms_geomean: runGraph CPU time per graph");
  }

  std::string loadShape() const override {
    return "simulator threads=" + std::to_string(JobThreads) +
           ", 1 stage at a time, buffer reuse on, closed loop, 1 graph in "
           "flight";
  }

private:
  void runChecked(size_t I, Checker &C, uint64_t JobId, Job *Out = nullptr) {
    GraphJob G;
    JobTimer Timer(Out);
    {
      trace::Span JobSpan("job", JobId);
      G = runGraphSource(Sources[I], Opts);
    }
    Timer.stop();
    if (Out)
      Out->KernelMs = G.RunCpuMs;
    if (JobId && !G.Result.Outputs.empty() && C.plantNow()) {
      std::vector<float> &V = G.Result.Outputs.begin()->second;
      if (!V.empty())
        V[0] += 1.0f;
    }
    if (!G.Error.empty())
      C.fail(std::string(GraphNames[I]) + ": " + G.Error);
    else if (!sameOutputs(G.Result.Outputs, Golden[I]))
      C.fail(std::string(GraphNames[I]) +
             ": outputs differ from the nproc-thread run");
    else if (G.Result.TotalCost != Cost[I])
      C.fail(std::string(GraphNames[I]) + ": cost differs from the "
                                          "nproc-thread run");
    else
      C.pass();
  }

  static bool sameOutputs(const std::map<std::string, std::vector<float>> &A,
                          const std::map<std::string, std::vector<float>> &B) {
    if (A.size() != B.size())
      return false;
    for (auto IA = A.begin(), IB = B.begin(); IA != A.end(); ++IA, ++IB)
      if (IA->first != IB->first || !bitIdentical(IA->second, IB->second))
        return false;
    return true;
  }

  Options O;
  graph::GraphRunOptions Opts;
  std::vector<std::string> Sources;
  std::vector<std::map<std::string, std::vector<float>>> Golden;
  std::vector<double> Cost;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeGraphPipelines(const Options &O) {
  return std::make_unique<GraphWorkload>(O);
}
