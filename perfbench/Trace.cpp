//===- Trace.cpp - In-memory spans for the traced benchmark run -----------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace perfbench;
using namespace perfbench::trace;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();

/// Nanoseconds since the process epoch.
int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

struct Open {
  uint64_t Id;
  uint64_t Job;
};

/// One thread's finished spans and its stack of open ones. Owned by the
/// registry so the records outlive the thread.
struct ThreadBuf {
  uint32_t Tid = 0;
  std::vector<SpanRec> Done;
  std::vector<Open> Stack;
};

std::mutex RegistryM;
std::vector<std::unique_ptr<ThreadBuf>> Registry;
std::map<std::string, double> Counters;
std::map<std::string, std::vector<double>> Samples;

ThreadBuf &local() {
  thread_local ThreadBuf *Buf = nullptr;
  if (!Buf) {
    std::lock_guard<std::mutex> L(RegistryM);
    Registry.push_back(std::make_unique<ThreadBuf>());
    Buf = Registry.back().get();
    Buf->Tid = static_cast<uint32_t>(Registry.size());
  }
  return *Buf;
}

void jsonEscape(std::FILE *F, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fprintf(F, "\\%c", C);
    else if (static_cast<unsigned char>(C) < 0x20)
      std::fprintf(F, "\\u%04x", C);
    else
      std::fputc(C, F);
  }
}

} // namespace

void trace::setEnabled(bool On) { Enabled.store(On); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }


Span::Span(const char *Name, uint64_t Job) {
  if (!enabled())
    return;
  Active = true;
  ThreadBuf &B = local();
  Rec.Name = Name;
  Rec.Id = NextId.fetch_add(1);
  Rec.Tid = B.Tid;
  if (!B.Stack.empty()) {
    Rec.Parent = B.Stack.back().Id;
    Rec.Job = B.Stack.back().Job;
  }
  if (Job)
    Rec.Job = Job;
  B.Stack.push_back({Rec.Id, Rec.Job});
  Rec.StartNs = nowNs();
}

double Span::end() {
  if (!Active)
    return Ms;
  Active = false;
  Rec.EndNs = nowNs();
  ThreadBuf &B = local();
  B.Stack.pop_back();
  B.Done.push_back(Rec);
  Ms = static_cast<double>(Rec.EndNs - Rec.StartNs) / 1e6;
  return Ms;
}

namespace {
bool inTimedJob() {
  ThreadBuf &B = local();
  return !B.Stack.empty() && B.Stack.back().Job != 0;
}
} // namespace

void trace::count(const std::string &Name, double V, bool Always) {
  if (!enabled() || !(Always || inTimedJob()))
    return;
  std::lock_guard<std::mutex> L(RegistryM);
  Counters[Name] += V;
}

void trace::sample(const std::string &Name, double V, bool Always) {
  if (!enabled() || !(Always || inTimedJob()))
    return;
  std::lock_guard<std::mutex> L(RegistryM);
  Samples[Name].push_back(V);
}

std::vector<SpanRec> trace::spans() {
  std::lock_guard<std::mutex> L(RegistryM);
  std::vector<SpanRec> All;
  for (const std::unique_ptr<ThreadBuf> &B : Registry)
    All.insert(All.end(), B->Done.begin(), B->Done.end());
  return All;
}

std::map<std::string, double> trace::counters() {
  std::lock_guard<std::mutex> L(RegistryM);
  return Counters;
}

std::map<std::string, std::vector<double>> trace::samples() {
  std::lock_guard<std::mutex> L(RegistryM);
  return Samples;
}

std::vector<double> trace::selfTimesMs(const std::vector<SpanRec> &All) {
  std::unordered_map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != All.size(); ++I)
    IndexOf[All[I].Id] = I;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(All.size());
  for (const SpanRec &S : All) {
    auto It = S.Parent ? IndexOf.find(S.Parent) : IndexOf.end();
    if (It != IndexOf.end())
      Kids[It->second].push_back({S.StartNs, S.EndNs});
  }
  std::vector<double> Self(All.size());
  for (size_t I = 0; I != All.size(); ++I) {
    const SpanRec &S = All[I];
    std::vector<std::pair<int64_t, int64_t>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    int64_t Covered = 0, Cursor = S.StartNs;
    for (auto [B, E] : K) {
      B = std::max(B, Cursor);
      E = std::min(E, S.EndNs);
      if (E > B) {
        Covered += E - B;
        Cursor = E;
      }
    }
    Self[I] = static_cast<double>(S.EndNs - S.StartNs - Covered) / 1e6;
  }
  return Self;
}

bool trace::writeChromeTrace(const std::string &Path,
                             const std::vector<SpanRec> &All,
                             const std::map<std::string, std::string> &Meta) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
  bool First = true;
  for (const auto &[K, V] : Meta) {
    std::fprintf(F, "%s\"", First ? "" : ", ");
    jsonEscape(F, K);
    std::fprintf(F, "\": \"");
    jsonEscape(F, V);
    std::fprintf(F, "\"");
    First = false;
  }
  std::fprintf(F, "},\n\"traceEvents\": [\n");
  for (size_t I = 0; I != All.size(); ++I) {
    const SpanRec &S = All[I];
    const std::string Name = S.Name;
    const std::string Layer = Name.substr(0, Name.find('.'));
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"job\": %llu}}%s\n",
                 Name.c_str(), Layer.c_str(), S.Tid,
                 static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Job),
                 I + 1 < All.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
