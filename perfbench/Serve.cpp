//===- Serve.cpp - The serve-mix workload ---------------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// An in-process liftd (service::Server) on a Unix socket in a fresh
// private directory, driven by one client connection in a closed loop:
// the client sends its next request only after the reply to the last
// one, as `liftc --remote` does. The daemon runs nproc workers with one
// simulator thread per request. With one request in flight, the
// process's CPU time over a round trip is that request's cost in the
// client and the daemon together.
//
// Requests are drawn from in-repo IL text: examples/il/*.lift, the kernel
// blocks of examples/graph/*.liftg and request_storm's two programs. Each
// hot request fixes a program, an NDRange choice, one of the three Fig. 8
// configurations and whether it runs (tiny sizes) or only compiles; a
// Zipf popularity over the hot requests, ranked by a fixed rule (shorter
// IL first), makes some repeat often (daemon dedupe hits); --seed drives
// the draws. Beside them runs a stream of never-seen programs: templates
// whose user-function constants are unique per request, so each one is
// a real compile. The never-seen share and the Zipf exponent are
// assumptions, not taken from measured traffic (see README.md). Every
// response must be bit-identical to an in-process service::execRequest
// of the same request.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "frontend/ILParser.h"
#include "graph/Graph.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace lift;
using namespace lift::service;
using namespace perfbench;

namespace {

/// A share of the requests are never-seen programs. An assumption: no
/// in-repo source measures compile-service traffic (README.md).
constexpr double FreshShare = 0.2;
/// Zipf exponent of the hot requests' popularity; also an assumption.
constexpr double ZipfS = 1.0;
/// Client connections. One, so that each request's CPU time is its own:
/// the job time is the process's CPU time over the round trip.
constexpr size_t ClientConnections = 1;
/// serve-mix reports as peak_rss_mb its resident set after this many
/// timed requests. The daemon's compile cache keeps every never-seen
/// program, so the resident set at the end of a timed run grows with the
/// requests served, and a faster daemon would read as a memory regression.
constexpr uint64_t RssAtRequest = 20000;

// The two programs bench/request_storm sends.
const char *StormSquare = "def sq(x: float): float = \"return x * x;\"\n"
                          "\n"
                          "fun(x: [float]N) =>\n"
                          "  mapGlb0(sq)(x)\n";
const char *StormScale =
    "def tri(x: float): float = \"return 3.0f * x + 1.0f;\"\n"
    "\n"
    "fun(x: [float]N) =>\n"
    "  mapGlb0(tri)(x)\n";

/// Templates for never-seen programs; $A and $B are replaced by constants
/// unique to each request.
struct Template {
  const char *Name;
  const char *Source;
};
const Template Fresh[] = {
    {"fresh.map", "def f(x: float): float = \"return x * $A + $B;\"\n\n"
                  "fun(x: [float]N) =>\n  mapGlb0(f)(x)\n"},
    {"fresh.zip",
     "def f(t: (float, float)): float = \"return t._0 * $A - t._1 * $B;\"\n\n"
     "fun(x: [float]N, y: [float]N) =>\n  mapGlb0(f)(zip(x, y))\n"},
    {"fresh.reduce",
     "def f(acc: float, x: float): float = \"return acc + x * $A - $B;\"\n\n"
     "fun(x: [float]N) =>\n"
     "  join(mapGlb0(\\(c) -> reduceSeq(f)(0.0f, c))(split(16)(x)))\n"},
};

struct Program {
  std::string Name;
  std::string Source;
  std::map<std::string, int64_t> Sizes;
  std::vector<std::array<int64_t, 2>> NDRanges; ///< {global, local}
  bool CanRun = true;
};

/// One hot request: program, NDRange choice, Fig. 8 configuration, run.
struct HotKey {
  size_t Program;
  size_t NDRange;
  int Config;
  bool Run;
};

ExecRequest makeExec(const Program &P, size_t NDRange, int Config, bool Run) {
  ExecRequest E;
  E.Source = P.Source;
  E.Run = Run;
  E.Opts.GlobalSize = {P.NDRanges[NDRange][0], 1, 1};
  E.Opts.LocalSize = {P.NDRanges[NDRange][1], 1, 1};
  E.Opts.BarrierElimination = Config != 0;
  E.Opts.ControlFlowSimplification = Config != 0;
  E.Opts.ArrayAccessSimplification = Config == 2;
  if (Run)
    E.Sizes = P.Sizes;
  return E;
}

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
  return S;
}

/// Exit code, stdout and diagnostics of a reply, hashed.
uint64_t replyHash(int Exit, const std::string &Stdout,
                   const std::vector<std::string> &Diags) {
  std::string S = std::to_string(Exit) + '\0' + Stdout;
  for (const std::string &D : Diags)
    S += '\0' + D;
  return support::fnv1a64(S);
}

bool sameAsReplay(const Response &R, const ExecOutcome &E) {
  return R.St == Status::Ok && R.Exit == E.Exit && R.Stdout == E.Stdout &&
         R.Diagnostics == E.Diags;
}

/// A reply handled after the timed loop, so the clients stay idle while
/// they wait and the daemon has the cores: replies to never-seen programs
/// are checked then, and traced runs replay every request's layers then.
/// Only the reply's hash is kept, so this adds little memory.
struct Deferred {
  ExecRequest Req;
  uint64_t ReplyHash = 0;
  std::string Error; ///< set when the reply was not an Ok exec reply
  bool Check = true; ///< false when the reply was already checked
  bool Cached = false; ///< the daemon served the compile from its cache
  uint64_t Job = 0;    ///< traced runs: the request's job id
  double RoundTripMs = 0;
};

class ServeWorkload : public Workload {
public:
  explicit ServeWorkload(const Options &O) : O(O) {}
  ~ServeWorkload() override { stopServer(); }

  std::vector<std::string> programs() const override {
    std::vector<std::string> Names;
    for (const Program &P : Programs) {
      Names.push_back(P.Name + "/compile");
      Names.push_back(P.Name + "/run");
    }
    for (const Template &T : Fresh) {
      Names.push_back(std::string(T.Name) + "/compile");
      Names.push_back(std::string(T.Name) + "/run");
    }
    return Names;
  }
  /// No passes: counts are per request.
  size_t jobsPerPass() const override { return 1; }

  void prepare(Checker &C) override {
    loadPrograms();
    for (size_t P = 0; P != Programs.size(); ++P)
      for (size_t N = 0; N != Programs[P].NDRanges.size(); ++N)
        for (int Config = 0; Config != 3; ++Config)
          for (bool Run : {false, true})
            if (!Run || Programs[P].CanRun)
              Hot.push_back({P, N, Config, Run});

    // Expected replies: an in-process execRequest under the daemon's
    // ceilings.
    ServerOptions Defaults;
    Ctx.MaxThreads = Defaults.MaxThreads;
    Ctx.MaxHostBufferBytes = Defaults.MaxHostBufferBytes;
    for (const HotKey &K : Hot) {
      Replies.push_back(execRequest(exec(K), Ctx));
      if (Replies.back().Exit != 0)
        C.fail(Programs[K.Program].Name +
               ": in-process run failed: " +
               (Replies.back().Diags.empty() ? std::string("?")
                                              : Replies.back().Diags[0]));
    }

    // Zipf popularity over the hot set ranked by a fixed rule: shorter IL
    // first (request_storm's two programs are the shortest), then
    // compile-only before run, then configuration, NDRange and program
    // list order. Which requests are hot is part of the workload; --seed
    // drives the draws.
    Rank.resize(Hot.size());
    for (size_t I = 0; I != Rank.size(); ++I)
      Rank[I] = I;
    auto RankKey = [&](size_t I) {
      const HotKey &K = Hot[I];
      return std::make_tuple(Programs[K.Program].Source.size(), K.Run,
                             K.Config, K.NDRange, K.Program);
    };
    std::sort(Rank.begin(), Rank.end(),
              [&](size_t A, size_t B) { return RankKey(A) < RankKey(B); });
    double Sum = 0;
    for (size_t I = 0; I != Rank.size(); ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I + 1), ZipfS);
      Cdf.push_back(Sum);
    }
    for (double &X : Cdf)
      X /= Sum;
  }

  void setup(Checker &C) override {
    stopServer();
    ServerOptions SO;
    SO.SocketPath = makePrivateDir(O.RunDir, "liftd") + "/d.sock";
    SO.Workers = O.Threads;
    Srv = std::make_unique<Server>(SO);
    std::string Err;
    if (!Srv->start(Err))
      throw std::runtime_error("liftd: " + Err);
    Client.SocketPath = SO.SocketPath;
    // Warm-up pass: every hot request once.
    for (size_t I = 0; I != Hot.size(); ++I) {
      Response Resp;
      DiagnosticEngine Engine;
      trace::Span JobSpan("job", 0);
      bool Sent = roundTrip(Client, request(exec(Hot[I])), Resp, Engine);
      JobSpan.end();
      if (Sent && sameAsReplay(Resp, Replies[I]))
        C.pass();
      else
        C.fail(Programs[Hot[I].Program].Name + ": warm-up reply differs");
    }
  }

  double run(double Seconds, Checker &C, std::vector<Job> &Jobs) override {
    ServerStats Before = Srv->stats();
    size_t N = ClientConnections;
    std::vector<std::vector<Job>> PerClient(N);
    std::vector<std::vector<Deferred>> Later(N);
    std::atomic<uint64_t> Served{0};
    Clock::time_point T0 = Clock::now();
    Clock::time_point Deadline =
        T0 + std::chrono::microseconds(static_cast<int64_t>(Seconds * 1e6));
    std::vector<std::thread> Clients;
    for (size_t T = 0; T < N; ++T)
      Clients.emplace_back([&, T] {
        Rng R(O.Seed * 1000003 + T * 7919 + Jobs.size());
        try {
          while (Clock::now() < Deadline) {
            PerClient[T].push_back(oneRequest(R, C, Later[T]));
            if (Served.fetch_add(1) + 1 == RssAtRequest)
              RssMiB = residentMiB();
          }
        } catch (std::exception &E) {
          C.fail(std::string("client stopped: ") + E.what());
        }
      });
    for (std::thread &Th : Clients)
      Th.join();
    double Elapsed = msSince(T0) / 1000;
    RssRequests = std::min<uint64_t>(Served, RssAtRequest);
    if (Served < RssAtRequest)
      RssMiB = residentMiB();
    for (const std::vector<Job> &V : PerClient)
      Jobs.insert(Jobs.end(), V.begin(), V.end());

    // Deferred replies are handled after the loop, one thread per client
    // list, each with its own compile products for cache-hit replays.
    Clients.clear();
    for (size_t T = 0; T < N; ++T)
      Clients.emplace_back([&, T] {
        std::map<std::string, std::shared_ptr<CompileProduct>> Products;
        for (const Deferred &D : Later[T]) {
          if (!D.Error.empty()) {
            C.fail(D.Error);
            continue;
          }
          try {
            ExecOutcome Want = trace::enabled()
                                   ? replay(D, Products)
                                   : execRequest(D.Req, Ctx);
            if (!D.Check)
              continue;
            if (D.ReplyHash == replyHash(Want.Exit, Want.Stdout, Want.Diags))
              C.pass();
            else
              C.fail("reply differs from the in-process run of the same "
                     "request");
          } catch (std::exception &E) {
            C.fail(std::string("in-process run threw: ") + E.what());
          }
        }
      });
    for (std::thread &Th : Clients)
      Th.join();

    ServerStats After = Srv->stats();
    trace::count("service.requests",
                 static_cast<double>(After.Requests - Before.Requests), true);
    trace::count("service.compiles",
                 static_cast<double>(After.Compiles - Before.Compiles), true);
    trace::count("service.dedupe_hits",
                 static_cast<double>(After.DedupeHits - Before.DedupeHits),
                 true);
    trace::count("service.shed", static_cast<double>(After.Shed - Before.Shed),
                 true);
    if (After.Shed != Before.Shed)
      C.fail("liftd shed " + std::to_string(After.Shed - Before.Shed) +
             " requests inside its capacity");
    return Elapsed;
  }

  void endToEnd(std::vector<Metric> &Out,
                std::vector<std::string> &Notes) override {
    // Simulator cost of one pass over the hot requests that run.
    double Cost = 0;
    for (const ExecOutcome &E : Replies) {
      size_t At = E.Stdout.find("// run: cost=");
      if (At != std::string::npos)
        Cost += std::strtod(E.Stdout.c_str() + At + 13, nullptr);
    }
    Out.push_back({"cost_units", Cost, "units"});
    Out.push_back({"rel_to_reference_geomean", 1.0, "ratio"});
    Out.push_back({"peak_rss_mb", RssMiB, "MiB"});
    Notes.push_back("peak_rss_mb: resident set after " +
                    std::to_string(RssRequests) + " timed requests" +
                    (RssRequests < RssAtRequest ? " (the whole timed loop)"
                                                : ""));
    Notes.push_back("cost_units: simulator cost of one pass over the " +
                    std::to_string(Hot.size()) + " hot requests that run");
    Notes.push_back("rel_to_reference_geomean: no reference kernels; "
                    "reported as 1");
    Notes.push_back("kernel_cpu_ms_geomean: requests that run a kernel");
    Notes.push_back("job_cpu_ms_geomean: over program/mode classes");
  }

  std::string loadShape() const override {
    return "liftd workers=" + std::to_string(O.Threads) +
           " (1 simulator thread each), " +
           std::to_string(ClientConnections) +
           " client connection in a closed loop, " +
           std::to_string(Hot.size()) + " hot requests, " +
           std::to_string(static_cast<int>(FreshShare * 100)) +
           "% never-seen programs";
  }

private:
  void loadPrograms() {
    auto Add = [&](std::string Name, std::string Source,
                   std::map<std::string, int64_t> Sizes,
                   std::vector<std::array<int64_t, 2>> ND, bool CanRun) {
      Programs.push_back({std::move(Name), std::move(Source), std::move(Sizes),
                          std::move(ND), CanRun});
    };
    for (const char *Name : {"dot", "square"}) {
      std::string Src;
      std::string Path = std::string("examples/il/") + Name + ".lift";
      if (!readFile(Path, Src))
        throw std::runtime_error("cannot read " + Path);
      Add(Name, Src, {{"N", 256}},
          Name == std::string("dot")
              ? std::vector<std::array<int64_t, 2>>{{128, 64}, {64, 16}}
              : std::vector<std::array<int64_t, 2>>{{64, 16}, {32, 8}},
          true);
    }
    Add("storm.square", StormSquare, {{"N", 256}}, {{64, 16}, {32, 8}}, true);
    Add("storm.scale", StormScale, {{"N", 1024}}, {{64, 16}, {32, 8}}, true);

    // Kernel blocks of the committed graphs, at the NDRange and sizes of
    // the first stage that uses them, each size cut to a quarter (at
    // least 8) so every run stays in the low milliseconds.
    for (const char *Name :
         {"stencil_chain", "matmul_bias", "jacobi", "kmeans_loop"}) {
      std::string Src;
      std::string Path = std::string("examples/graph/") + Name + ".liftg";
      if (!readFile(Path, Src))
        throw std::runtime_error("cannot read " + Path);
      DiagnosticEngine Engine;
      Expected<graph::Graph> G = graph::parseGraphChecked(Src, Engine);
      if (!G)
        throw std::runtime_error(Path + ": " + Engine.render());
      for (const graph::KernelDecl &K : G->Kernels) {
        const graph::StageDecl *Use = firstUse(*G, K.Name);
        if (!Use)
          continue;
        std::map<std::string, int64_t> Sizes;
        for (auto [Var, V] : Use->Sizes)
          Sizes[Var] = std::max<int64_t>(8, V / 4);
        int64_t Gl = Use->Global[0], Lo = Use->Local[0];
        int64_t Alt = Gl / 2 >= Lo && (Gl / 2) % Lo == 0 ? Gl / 2 : Gl * 2;
        // Index tables (int inputs) cannot come from the service's random
        // float inputs: such kernels are compile-only.
        bool IntInputs = K.Source.find("[int]") != std::string::npos;
        Add(std::string(Name) + "." + K.Name, K.Source, Sizes,
            {{Gl, Lo}, {Alt, Lo}}, !IntInputs);
      }
    }
  }

  static const graph::StageDecl *firstUse(const graph::Graph &G,
                                          const std::string &Kernel) {
    for (const graph::GraphNode &N : G.Nodes) {
      if (N.K == graph::GraphNode::Kind::Stage && N.Stage.Kernel == Kernel)
        return &N.Stage;
      for (const graph::StageDecl &S : N.Iterate.Body)
        if (S.Kernel == Kernel)
          return &S;
    }
    return nullptr;
  }

  ExecRequest exec(const HotKey &K) const {
    return makeExec(Programs[K.Program], K.NDRange, K.Config, K.Run);
  }

  static Request request(ExecRequest E) {
    Request R;
    R.Kind = Op::Exec;
    R.Exec = std::move(E);
    return R;
  }

  /// Draws, sends and checks one request; returns its timed job. Replies
  /// to never-seen programs, and every request of a traced run, go to
  /// \p Later.
  Job oneRequest(Rng &R, Checker &C, std::vector<Deferred> &Later) {
    Job J;
    ExecRequest E;
    const ExecOutcome *Want = nullptr;
    if (R.unit() < FreshShare) {
      size_t T = R.below(std::size(Fresh));
      uint64_t N = FreshCounter.fetch_add(1);
      char A[32], B[32];
      std::snprintf(A, sizeof(A), "1.%06lluf",
                    static_cast<unsigned long long>(N % 1000000));
      std::snprintf(B, sizeof(B), "0.%03llu5f",
                    static_cast<unsigned long long>(O.Seed % 1000));
      Program P{Fresh[T].Name,
                replaceAll(replaceAll(Fresh[T].Source, "$A", A), "$B", B),
                {{"N", 256}},
                {{64, 16}},
                true};
      bool Run = R.unit() < 0.5;
      E = makeExec(P, 0, static_cast<int>(R.below(3)), Run);
      J.Program = 2 * (Programs.size() + T) + (Run ? 1 : 0);
    } else {
      double U = R.unit();
      size_t Pos = static_cast<size_t>(
          std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
      size_t Idx = Rank[std::min(Pos, Rank.size() - 1)];
      E = exec(Hot[Idx]);
      Want = &Replies[Idx];
      J.Program = 2 * Hot[Idx].Program + (Hot[Idx].Run ? 1 : 0);
    }
    bool Run = E.Run;
    Request Req = request(std::move(E));

    uint64_t Id = nextJobId();
    Response Resp;
    DiagnosticEngine Engine;
    double RoundTripMs = 0;
    bool Sent;
    JobTimer Timer(&J);
    {
      trace::Span JobSpan("job", Id);
      trace::Span RT("service.roundtrip");
      Sent = roundTrip(Client, Req, Resp, Engine);
      RoundTripMs = RT.end();
    }
    Timer.stop();
    J.KernelMs = Run ? J.Ms : 0;
    if (C.plantNow())
      Resp.Stdout += " ";
    std::string Why = Sent ? "" : Engine.render();

    // The check compares with an in-process execRequest of the same
    // request: made in prepare() for hot requests and after the timed loop
    // for never-seen ones.
    if (Want)
      check(C, Sent, Resp, *Want, Why);
    if (!Want || trace::enabled()) {
      Deferred D;
      D.Req = std::move(Req.Exec);
      D.ReplyHash = replyHash(Resp.Exit, Resp.Stdout, Resp.Diagnostics);
      D.Check = !Want;
      D.Cached = Resp.Cached;
      D.Job = Id;
      D.RoundTripMs = RoundTripMs;
      if (!Want && !Sent)
        D.Error = "request not delivered: " + Why;
      else if (!Want && Resp.St != Status::Ok)
        D.Error = std::string("daemon answered ") + statusName(Resp.St);
      Later.push_back(std::move(D));
    }
    return J;
  }

  /// Traced runs only, after the timed loop: the work the daemon did for
  /// request \p D, replayed in process under the request's job id. A
  /// request the daemon served from its compile cache replays only the
  /// run stage, from a product made once per compile key outside the
  /// spans; a cache miss replays the compile inline and then each compile
  /// layer in its own span. Returns the replay's outcome.
  ExecOutcome
  replay(const Deferred &D,
         std::map<std::string, std::shared_ptr<CompileProduct>> &Products) {
    trace::Span Check("check", D.Job);
    CompileProduct *Pre = nullptr;
    if (D.Cached) {
      std::shared_ptr<CompileProduct> &P = Products[compileKey(D.Req)];
      if (!P)
        P = compileRequest(D.Req);
      Pre = P.get();
    }
    ExecOutcome Out;
    {
      trace::Span S("service.exec");
      Out = execRequest(D.Req, Ctx, Pre);
      trace::sample("service.transport_ms", D.RoundTripMs - S.end());
    }
    if (!D.Cached)
      replayLayers(D.Req);
    return Out;
  }

  static void check(Checker &C, bool Sent, const Response &Resp,
                    const ExecOutcome &Want, const std::string &Why) {
    if (!Sent)
      C.fail("request not delivered: " + Why);
    else if (!sameAsReplay(Resp, Want))
      C.fail("reply differs from the in-process run of the same request");
    else
      C.pass();
  }

  /// Traced runs only: the compile layers a request goes through inside
  /// the daemon, replayed in process, each in its own span.
  static void replayLayers(const ExecRequest &E) {
    trace::Span Replay("trace.replay");
    DiagnosticEngine Engine;
    trace::Span ParseSpan("frontend.parse");
    Expected<frontend::ParsedProgram> P =
        frontend::parseILChecked(E.Source, Engine);
    ParseSpan.end();
    if (!P)
      return;
    double PhasesMs =
        replayCompilePhases(P->Program, E.Opts.BarrierElimination);
    trace::Span CompileSpan("codegen.compile");
    Expected<codegen::CompiledKernel> K =
        codegen::compileChecked(P->Program, E.Opts, Engine);
    double CompileMs = CompileSpan.end();
    if (!K)
      return;
    trace::sample("codegen.self_ms", CompileMs - PhasesMs);
    trace::count("passes.barriers_eliminated", K->BarriersEliminated);
    trace::count("codegen.source_bytes", static_cast<double>(K->Source.size()));
    trace::count("codegen.loops_simplified", K->LoopsSimplified);
  }

  void stopServer() {
    if (!Srv)
      return;
    Srv->requestShutdown();
    Srv->wait();
    Srv.reset();
  }

  Options O;
  std::vector<Program> Programs;
  std::vector<HotKey> Hot;
  std::vector<ExecOutcome> Replies; ///< per hot request, from prepare()
  std::vector<size_t> Rank; ///< popularity rank -> hot index
  std::vector<double> Cdf;  ///< Zipf CDF over ranks
  ExecContext Ctx;
  std::unique_ptr<Server> Srv;
  ClientOptions Client;
  std::atomic<uint64_t> FreshCounter{0};
  double RssMiB = 0;        ///< resident set after RssRequests requests
  uint64_t RssRequests = 0; ///< timed requests when RssMiB was read
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServeMix(const Options &O) {
  return std::make_unique<ServeWorkload>(O);
}
