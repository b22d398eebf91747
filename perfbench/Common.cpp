//===- Common.cpp - Shared pieces of liftbench ----------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "ir/TypeInference.h"
#include "passes/AddressSpaceInference.h"
#include "passes/BarrierElimination.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

using namespace lift;
using namespace perfbench;

void Checker::fail(const std::string &What) {
  ++Attempted;
  ++Failed;
  std::lock_guard<std::mutex> L(M);
  if (Failures.size() < 20)
    Failures.push_back(What);
}

std::vector<std::string> Checker::failures() const {
  std::lock_guard<std::mutex> L(M);
  return Failures;
}

uint64_t perfbench::nextJobId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1);
}

double perfbench::cpuMs() {
  timespec T{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

double perfbench::cpuMsWithChildren() {
  rusage U{};
  ::getrusage(RUSAGE_CHILDREN, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return cpuMs() + Ms(U.ru_utime) + Ms(U.ru_stime);
}

namespace {

/// The calibration loop: it builds three random expression trees of 1023
/// heap-allocated nodes, evaluates each four times through virtual calls,
/// and frees them, amid a churn of small vectors. Like the simulator and
/// the compiler, it allocates, chases pointers and dispatches indirectly,
/// and of the loops tried (a table-driven dispatch over a 256 KiB table,
/// a pointer chase over 16 MiB, a streaming sum, allocation alone and
/// trees alone), this mix tracked the host's speed best on the four
/// workloads: correlation 0.5 to 0.98 between its time and the jobs'
/// over 2-4 s windows.
class CalLoop {
  struct Node {
    virtual ~Node() = default;
    virtual double eval(double X) const = 0;
  };
  struct Lit final : Node {
    double V;
    explicit Lit(double V) : V(V) {}
    double eval(double) const override { return V; }
  };
  struct Var final : Node {
    double eval(double X) const override { return X; }
  };
  struct Bin final : Node {
    bool Mul;
    std::unique_ptr<Node> A, B;
    Bin(bool Mul, std::unique_ptr<Node> A, std::unique_ptr<Node> B)
        : Mul(Mul), A(std::move(A)), B(std::move(B)) {}
    double eval(double X) const override {
      return Mul ? A->eval(X) * B->eval(X) * 0.5 : A->eval(X) + B->eval(X);
    }
  };

  static std::unique_ptr<Node> build(int Depth, Rng &R) {
    uint64_t X = R.next();
    if (Depth == 0) {
      if (X >> 63)
        return std::make_unique<Var>();
      return std::make_unique<Lit>(1.0 + static_cast<double>(X >> 60));
    }
    std::unique_ptr<Node> A = build(Depth - 1, R);
    return std::make_unique<Bin>((X >> 62) & 1, std::move(A),
                                 build(Depth - 1, R));
  }

public:
  double run() {
    Rng R(3);
    double Sum = 0;
    for (int T = 0; T != 3; ++T) {
      std::unique_ptr<Node> Tree = build(9, R);
      for (int I = 0; I != 4; ++I)
        Sum += Tree->eval(I * 0.25);
    }
    std::vector<std::unique_ptr<std::vector<int>>> Live;
    for (int I = 0; I != 1500; ++I) {
      Live.push_back(std::make_unique<std::vector<int>>(
          16 + (R.next() >> 58) * 32, 1));
      if (Live.size() > 64) {
        Sum += static_cast<double>(Live.front()->size());
        Live.erase(Live.begin());
      }
    }
    return Sum;
  }
};

struct CalLog {
  std::mutex M;
  CalLoop Loop;
  std::vector<std::pair<int64_t, double>> Samples; ///< (nowNs, CPU ms)
};

CalLog &calLog() {
  static CalLog L;
  return L;
}

} // namespace

double perfbench::calib::sample() {
  CalLog &L = calLog();
  std::lock_guard<std::mutex> G(L.M);
  static volatile double Sink;
  double C0 = cpuMs();
  Sink = Sink + L.Loop.run();
  double Ms = cpuMs() - C0;
  L.Samples.push_back({nowNs(), Ms});
  return Ms;
}

void perfbench::calib::sampleIfDue() {
  // One sample per 20 ms of wall time, and up to three after a long job,
  // so that a job of a second is flanked by three on either side.
  constexpr int64_t DueNs = 20'000'000, LongNs = 200'000'000;
  int64_t Since;
  {
    CalLog &L = calLog();
    std::lock_guard<std::mutex> G(L.M);
    Since = L.Samples.empty() ? LongNs : nowNs() - L.Samples.back().first;
  }
  if (Since < DueNs)
    return;
  for (int64_t K = 0, N = std::min<int64_t>(3, 1 + Since / LongNs); K != N;
       ++K)
    sample();
}

std::vector<double> perfbench::calib::samples() {
  CalLog &L = calLog();
  std::lock_guard<std::mutex> G(L.M);
  std::vector<double> V;
  for (const auto &[Ns, Ms] : L.Samples)
    V.push_back(Ms);
  return V;
}

double perfbench::calib::factor(int64_t StartNs, int64_t EndNs) {
  // The mean of the samples within WindowNs of the job, or at least of the
  // nearest one on either side. A single sample is noisy (0.5 to 2 times
  // the median within one run); the host's speed moves over seconds.
  constexpr int64_t WindowNs = 100'000'000;
  CalLog &L = calLog();
  std::lock_guard<std::mutex> G(L.M);
  const auto &S = L.Samples; // in time order
  auto Index = [&](int64_t Ns) { // the first sample at or after Ns
    return static_cast<size_t>(
        std::lower_bound(S.begin(), S.end(), Ns,
                         [](const std::pair<int64_t, double> &X, int64_t T) {
                           return X.first < T;
                         }) -
        S.begin());
  };
  // The samples used are [First, Last).
  size_t First = Index(StartNs - WindowNs), Last = Index(EndNs + WindowNs + 1);
  size_t Before = Index(StartNs), After = Index(EndNs + 1);
  if (Before != 0)
    First = std::min(First, Before - 1);
  if (After != S.size())
    Last = std::max(Last, After + 1);
  double Sum = 0;
  for (size_t I = First; I < Last; ++I)
    Sum += S[I].second;
  return Sum > 0 ? NominalMs * static_cast<double>(Last - First) / Sum : 1.0;
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

double perfbench::residentMiB() {
  std::ifstream F("/proc/self/statm");
  uint64_t Pages = 0, Resident = 0;
  if (!(F >> Pages >> Resident))
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string perfbench::makePrivateDir(const std::string &Parent,
                                      const std::string &Tag) {
  std::string Templ = Parent + "/" + Tag + "-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  if (!::mkdtemp(Buf.data()))
    throw std::runtime_error("cannot create a private directory under " +
                             Parent + ": " + std::strerror(errno));
  return Buf.data();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::midMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t Lo = N * 45 / 100, Hi = std::max(Lo + 1, (N * 55 + 99) / 100);
  double Sum = 0;
  for (size_t I = Lo; I != Hi; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Hi - Lo);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::tailLatency(std::vector<double> V, double WantPct,
                              size_t MinBeyond, double &Pct,
                              size_t &Beyond) {
  Pct = 0;
  Beyond = 0;
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  // Nearest-rank percentile.
  size_t Idx = static_cast<size_t>(std::ceil(WantPct / 100 * N));
  Idx = Idx ? Idx - 1 : 0;
  if (N - 1 - Idx < MinBeyond)
    Idx = N > MinBeyond ? N - 1 - MinBeyond : 0;
  Beyond = N - 1 - Idx;
  Pct = 100.0 * static_cast<double>(Idx + 1) / static_cast<double>(N);
  return V[Idx];
}

bool perfbench::bitIdentical(const std::vector<float> &Got,
                             const std::vector<float> &Want) {
  return Got.size() == Want.size() &&
         (Got.empty() ||
          std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(float)) ==
              0);
}

double perfbench::replayCompilePhases(const ir::LambdaPtr &Program,
                                      bool Barriers) {
  trace::Span Replay("trace.replay");
  ir::LambdaPtr Clone = cast<ir::Lambda>(
      ir::cloneFunDecl(std::static_pointer_cast<ir::FunDecl>(Program)));
  double Ms = 0;
  try {
    {
      trace::Span S("ir.typeinfer");
      ir::inferProgramTypes(Clone);
      Ms += S.end();
    }
    {
      trace::Span S("passes.addrspace");
      passes::inferAddressSpaces(Clone);
      Ms += S.end();
    }
    if (Barriers) {
      trace::Span S("passes.barrier");
      passes::eliminateBarriers(Clone);
      Ms += S.end();
    }
  } catch (DiagnosticError &) {
    // compileChecked below reports the same failure.
  }
  return Ms;
}
