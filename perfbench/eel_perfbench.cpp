//===- perfbench/eel_perfbench.cpp - The EEL benchmark program ------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload against the EEL libraries, only through their
/// public calls, checks every operation, and prints every metric by name
/// and unit. The last line of standard output is one JSON object:
///
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
/// run measures half its time untraced and half traced, and the metrics are
/// the per-layer set derived from spans this program records around each
/// public call (no instrumentation inside the libraries), plus the tracing
/// overhead. NOTES.md in this directory explains the workloads and the
/// layer-to-metric map.
///
/// Usage:
///   eel-perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--trace-out FILE] [--git-rev REV] [--source-digest D]
///   eel-perfbench --selftest
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "core/Executable.h"
#include "serve/Protocol.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Trace.h"
#include "tools/Qpt.h"
#include "vm/Machine.h"
#include "workload/Generator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace eel;

namespace {

// --- Clock, statistics ------------------------------------------------------

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double secondsSince(uint64_t StartNs) { return (nowNs() - StartNs) * 1e-9; }

/// Linear-interpolation quantile (the common "type 7" definition).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Returns memory setup freed to the system and restarts the kernel's
/// resident-set high-water mark, so the peak read after the window covers
/// the window. False when the kernel does not allow the reset.
bool resetPeakRss() {
  malloc_trim(0);
  FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// Peak resident set in MB: VmHWM after a successful resetPeakRss(), else
/// the process-lifetime ru_maxrss.
double peakRssMb(bool WasReset) {
  if (WasReset)
    if (FILE *F = std::fopen("/proc/self/status", "r")) {
      char Line[256];
      double Kb = -1;
      while (std::fgets(Line, sizeof(Line), F))
        if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
          break;
      std::fclose(F);
      if (Kb > 0)
        return Kb / 1024.0;
    }
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Derives independent input seeds from the run seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed * 0x100000001B3ull + Stream);
  return R.next();
}

// --- Spans --------------------------------------------------------------------

/// One span this program recorded around a call into a layer.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = root.
  uint64_t RequestId = 0;
  uint32_t Thread = 0;
};

/// In-memory span store. Each thread appends to its own buffer; buffers
/// are merged and written out when the run ends. Disabled, a span costs
/// one relaxed load.
class SpanLog {
public:
  static SpanLog &instance() {
    static SpanLog L;
    return L;
  }

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  uint32_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  void record(const Span &S) {
    thread_local Buffer *Mine = nullptr;
    if (!Mine) {
      std::lock_guard<std::mutex> G(M);
      Buffers.push_back(std::make_unique<Buffer>());
      Mine = Buffers.back().get();
      Mine->Thread = static_cast<uint32_t>(Buffers.size());
    }
    Mine->Spans.push_back(S);
    Mine->Spans.back().Thread = Mine->Thread;
  }

  /// All spans recorded so far. Call only once recording threads joined.
  std::vector<Span> collect() const {
    std::lock_guard<std::mutex> G(M);
    std::vector<Span> All;
    for (const auto &B : Buffers)
      All.insert(All.end(), B->Spans.begin(), B->Spans.end());
    return All;
  }

private:
  struct Buffer {
    uint32_t Thread = 0;
    std::vector<Span> Spans;
  };
  std::atomic<bool> Enabled{false};
  std::atomic<uint32_t> NextId{1};
  mutable std::mutex M;
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// Times one call into a layer; records a span when tracing is on.
class Timed {
public:
  Timed(const char *Name, uint32_t Parent, uint64_t Rid)
      : Name(Name), Parent(Parent), Rid(Rid), Start(nowNs()) {
    if (SpanLog::instance().enabled())
      Id = SpanLog::instance().newId();
  }
  ~Timed() { stop(); }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

  /// Ends the span; returns its duration in seconds.
  double stop() {
    if (!End) {
      End = nowNs();
      if (Id) {
        Span S;
        S.Name = Name;
        S.StartNs = Start;
        S.EndNs = End;
        S.Id = Id;
        S.Parent = Parent;
        S.RequestId = Rid;
        SpanLog::instance().record(S);
      }
    }
    return (End - Start) * 1e-9;
  }
  uint32_t id() const { return Id; }

private:
  const char *Name;
  uint32_t Parent;
  uint64_t Rid;
  uint64_t Start;
  uint64_t End = 0;
  uint32_t Id = 0;
};

/// Per span name: busy time (sum of durations) and self time (duration
/// minus its child spans' durations; a span's children run one after another
/// on its thread, so they never overlap).
struct LayerTime {
  double BusyMs = 0.0;
  double SelfMs = 0.0;
};

std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &Spans) {
  std::map<uint32_t, double> ChildMs;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildMs[S.Parent] += (S.EndNs - S.StartNs) * 1e-6;
  std::map<std::string, LayerTime> Out;
  for (const Span &S : Spans) {
    LayerTime &L = Out[S.Name];
    double Dur = (S.EndNs - S.StartNs) * 1e-6;
    auto It = ChildMs.find(S.Id);
    L.BusyMs += Dur;
    L.SelfMs += Dur - (It == ChildMs.end() ? 0.0 : It->second);
  }
  return Out;
}

/// Writes the spans as Chrome trace-event JSON, times relative to the first
/// span; each event's args carry its span id and parent span id.
bool writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  uint64_t Base = UINT64_MAX;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  std::vector<TraceEvent> Events;
  Events.reserve(Spans.size());
  for (const Span &S : Spans) {
    TraceEvent Ev;
    Ev.Name = S.Name;
    Ev.StartNs = S.StartNs - Base;
    Ev.EndNs = S.EndNs - Base;
    Ev.Tid = S.Thread;
    Ev.Seq = 0;
    Ev.RequestId = S.RequestId;
    Ev.Key0 = "span";
    Ev.Val0 = std::to_string(S.Id);
    Ev.Key1 = "parent";
    Ev.Val1 = S.Parent;
    Events.push_back(std::move(Ev));
  }
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Json = renderChromeTrace(Events);
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  return std::fclose(F) == 0 && Ok;
}

// --- Results -------------------------------------------------------------------

/// A metric as printed: value and unit.
struct Metric {
  double Value = 0.0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What one measured window produced.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// A check outside the counted operations (a status scrape) failed.
  bool Broken = false;
  std::map<std::string, uint64_t> FailureReasons; ///< Cause -> count.
  MetricMap EndToEnd;
  MetricMap Layers;
  std::map<std::string, double> Detail; ///< Sample counts and the like.
};

void noteReason(Outcome &O, const std::string &Why, uint64_t Count = 1) {
  O.FailureReasons[Why] += Count;
}

void noteFailure(Outcome &O, const std::string &Why) {
  ++O.Failed;
  noteReason(O, Why);
}

void noteBroken(Outcome &O, const std::string &Why) {
  O.Broken = true;
  noteReason(O, Why);
}

/// Adds one corpus edit's deterministic counts to the per-layer metrics.
void addEditCounts(MetricMap &L, const Executable::EditStats &Stats,
                   double BytesIn, double BytesOut, double InstsOriginal,
                   double InstsEdited, double VerifyChecks) {
  auto add = [&](const char *Name, double V) { L[Name].Value += V; };
  add("tools.snippets", Stats.SnippetInstances);
  add("core.delay_slots_folded", Stats.DelaySlotsFolded);
  add("core.translation_sites", Stats.TranslationSites);
  add("core.snippet_spills", Stats.SnippetSpills);
  add("sxf.bytes_in", BytesIn);
  add("sxf.bytes_out", BytesOut);
  add("vm.insts_original", InstsOriginal);
  add("vm.insts_edited", InstsEdited);
  add("analysis.verify_checks", VerifyChecks);
}

// --- Shared correctness oracle -------------------------------------------------

/// What running an image in the VM showed.
struct VmRun {
  bool Exited = false;
  int ExitCode = 0;
  uint64_t Insts = 0;
  std::string Output;
};

VmRun runVm(const SxfFile &Image) {
  Machine M(Image);
  RunResult R = M.run();
  VmRun V;
  V.Exited = R.Reason == StopReason::Exited;
  V.ExitCode = R.ExitCode;
  V.Insts = R.Instructions;
  V.Output = std::move(R.Output);
  return V;
}

/// Empty when \p Edited behaves like \p Original in the VM; else the cause.
std::string compareRuns(const VmRun &Original, const VmRun &Edited) {
  if (!Edited.Exited)
    return "edited image did not exit cleanly";
  if (Edited.ExitCode != Original.ExitCode)
    return "exit code " + std::to_string(Edited.ExitCode) + " != " +
           std::to_string(Original.ExitCode);
  if (Edited.Output != Original.Output)
    return "VM output differs from the original's";
  return "";
}

/// The batch oracle: verifyEdit reports no error and the edited image
/// behaves like the original. Empty when both hold; else the cause.
struct Judgement {
  std::string Failure;
  double VerifySec = 0.0;
  unsigned Checks = 0;
  uint64_t InstsEdited = 0;
};

Judgement judgeEdit(Executable &Exec, const SxfFile &Edited,
                    const VmRun &Original, uint32_t Parent, uint64_t Rid) {
  Judgement J;
  {
    Timed T("analysis.verify", Parent, Rid);
    DiagnosticReport Report = verifyEdit(Exec, Edited);
    J.VerifySec = T.stop();
    J.Checks = Report.checksRun();
    if (Report.errorCount())
      J.Failure = "verifyEdit reported " + std::to_string(Report.errorCount()) +
                  " errors";
  }
  Timed T("vm", Parent, Rid);
  VmRun Run = runVm(Edited);
  J.InstsEdited = Run.Insts;
  if (J.Failure.empty())
    J.Failure = compareRuns(Original, Run);
  return J;
}

/// The serve oracle: an OK response whose image equals the key's reference.
/// Empty when both hold; else the cause.
std::string judgeResponse(const Expected<ServeResponse> &Resp,
                          const std::vector<uint8_t> &Reference) {
  if (Resp.hasError())
    return "undecodable response: " + Resp.error().describe();
  if (Resp.value().Status != ServeStatus::Ok)
    return "response status " +
           std::to_string(static_cast<int>(Resp.value().Status)) + ": " +
           Resp.value().EnvelopeJson;
  if (Resp.value().EditedImage != Reference)
    return "edited image differs from the reference";
  return "";
}

// --- Batch workloads (edit, edit-stripped-tail) ------------------------------

/// A batch corpus: per ISA, one symboled and one stripped image (an image
/// of 0 routines is left out).
struct BatchConfig {
  unsigned SymboledRoutines = 4000;
  unsigned StrippedRoutines = 2000;
  unsigned Threads = 2; ///< Pipeline threads (Executable::Options).
  /// Generate the stripped MRISC image without tail calls. Instrumenting
  /// one with them is a known defect (NOTES.md, "Known failure"): its edited
  /// program prints a different checksum. edit avoids it so that every
  /// operation it times succeeds; edit-stripped-tail keeps it.
  bool AvoidStrippedMriscTailCalls = false;
};

struct BatchImage {
  TargetArch Arch = TargetArch::Srisc;
  bool Stripped = false;
  std::vector<uint8_t> Bytes;
  VmRun Original;
};

WorkloadOptions corpusOptions(uint64_t Seed, unsigned Routines,
                              bool TailCalls = true) {
  WorkloadOptions W;
  W.Seed = Seed;
  W.Routines = Routines;
  W.TailCallPercent = TailCalls ? 10 : 0;
  W.SymbolPathologies = true;
  // Long loops make loop bodies, not the few routines main happens to
  // reach, dominate each run, so run_slowdown_x holds still across seeds.
  W.LoopIterations = 100;
  return W;
}

/// Setup: generate the corpus and run each original in the VM.
std::vector<BatchImage> setupBatch(const BatchConfig &C, uint64_t Seed) {
  std::vector<BatchImage> Corpus;
  std::vector<unsigned> Routines;
  for (bool Stripped : {false, true})
    for (TargetArch Arch : AllTargetArches)
      if (unsigned R = Stripped ? C.StrippedRoutines : C.SymboledRoutines) {
        BatchImage B;
        B.Arch = Arch;
        B.Stripped = Stripped;
        Corpus.push_back(std::move(B));
        Routines.push_back(R);
      }
  std::vector<std::thread> Workers;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Workers.emplace_back([&, I] {
      BatchImage &B = Corpus[I];
      bool TailCalls = !(B.Stripped && C.AvoidStrippedMriscTailCalls &&
                         B.Arch == TargetArch::Mrisc);
      SxfFile Image = generateWorkload(
          B.Arch, corpusOptions(deriveSeed(Seed, I), Routines[I], TailCalls));
      if (B.Stripped)
        Image.strip();
      B.Original = runVm(Image);
      B.Bytes = Image.serialize();
    });
  for (std::thread &T : Workers)
    T.join();
  return Corpus;
}

/// One batch operation's result.
struct BatchOp {
  std::string Failure;
  unsigned Routines = 0;
  bool Inferred = false; ///< readContents ran eel-infer.
  /// Seconds in open+read, instrument, write.
  double PhaseSec[3] = {0.0, 0.0, 0.0};
  bool Wrote = false; ///< The write succeeded; timings and counts are valid.
  double VerifySec = 0.0;
  unsigned Checks = 0;
  uint64_t BytesOut = 0;
  uint64_t InstsEdited = 0;
  Executable::EditStats Stats;
};

BatchOp editOne(const BatchConfig &C, const BatchImage &B, uint64_t Rid,
                const std::function<void(SxfFile &)> &Corrupt = nullptr) {
  BatchOp Op;
  Timed Root("edit", 0, Rid);
  SxfFile Image;
  {
    Timed T("sxf", Root.id(), Rid);
    Expected<SxfFile> In = SxfFile::deserialize(B.Bytes);
    if (In.hasError()) {
      Op.Failure = "deserialize: " + In.error().describe();
      return Op;
    }
    Image = std::move(In.value());
  }
  Executable::Options Opts;
  Opts.Threads = C.Threads;
  std::unique_ptr<Executable> Exec;
  {
    Timed T("core.read", Root.id(), Rid);
    Expected<std::unique_ptr<Executable>> Opened =
        Executable::openImage(std::move(Image), Opts);
    if (Opened.hasError()) {
      Op.Failure = "openImage: " + Opened.error().describe();
      return Op;
    }
    Exec = std::move(Opened.value());
    Expected<bool> Read = Exec->readContents();
    Op.PhaseSec[0] = T.stop();
    if (Read.hasError()) {
      Op.Failure = "readContents: " + Read.error().describe();
      return Op;
    }
  }
  Op.Routines = static_cast<unsigned>(Exec->routines().size());
  Op.Inferred = Exec->inferenceUsed();
  Qpt2Profiler Qpt(*Exec); // Outlives the write: snippets refer to it.
  {
    Timed T("tools", Root.id(), Rid);
    Qpt.instrument();
    Op.PhaseSec[1] = T.stop();
  }
  Expected<SxfFile> Edited = [&] {
    Timed T("core.write", Root.id(), Rid);
    Expected<SxfFile> E = Exec->writeEditedExecutable();
    Op.PhaseSec[2] = T.stop();
    return E;
  }();
  if (Edited.hasError()) {
    Op.Failure = "writeEditedExecutable: " + Edited.error().describe();
    return Op;
  }
  Op.Wrote = true;
  Op.Stats = Exec->editStats();
  {
    Timed T("sxf", Root.id(), Rid);
    Op.BytesOut = Edited.value().serialize().size();
  }
  if (Corrupt)
    Corrupt(Edited.value());
  Judgement J = judgeEdit(*Exec, Edited.value(), B.Original, Root.id(), Rid);
  Op.Failure = J.Failure;
  Op.VerifySec = J.VerifySec;
  Op.Checks = J.Checks;
  Op.InstsEdited = J.InstsEdited;
  return Op;
}

/// Runs whole passes over the corpus until \p Seconds elapse (at least one
/// pass). The timing metrics are what the window measured: every completed
/// edit's time, summed.
Outcome measureBatch(const BatchConfig &C, const std::vector<BatchImage> &Corpus,
                     double Seconds) {
  Outcome O;
  const size_t N = Corpus.size();
  // Per image, its last completed edit, for the counts (every pass over an
  // image produces the same ones).
  std::vector<BatchOp> Counted(N);
  double Routines = 0, EditSec = 0, VerifySec = 0;
  // The stripped images' share, where core.read runs eel-infer.
  double StrippedRoutines = 0, StrippedReadSec = 0, StrippedVerifySec = 0;
  std::vector<double> PassMs; ///< Per pass, its edits' summed time.
  uint64_t Start = nowNs();
  uint64_t Rid = 0;
  unsigned Passes = 0;
  for (; Passes == 0 || secondsSince(Start) < Seconds; ++Passes) {
    PassMs.push_back(0.0);
    for (size_t I = 0; I < N; ++I) {
      BatchOp Op = editOne(C, Corpus[I], ++Rid);
      ++O.Attempted;
      if (!Op.Failure.empty())
        noteFailure(O, std::string(targetFor(Corpus[I].Arch).name()) + ": " +
                           Op.Failure);
      // A failed verdict does not undo the work: time every completed
      // write, so the corpus mix stays the same.
      if (!Op.Wrote)
        continue;
      double Edit = Op.PhaseSec[0] + Op.PhaseSec[1] + Op.PhaseSec[2];
      Routines += Op.Routines;
      EditSec += Edit;
      VerifySec += Op.VerifySec;
      if (Corpus[I].Stripped) {
        StrippedRoutines += Op.Routines;
        StrippedReadSec += Op.PhaseSec[0];
        StrippedVerifySec += Op.VerifySec;
      }
      PassMs.back() += Edit * 1e3;
      Counted[I] = std::move(Op);
    }
  }
  double Wall = secondsSince(Start);

  double PassRoutines = 0;
  std::vector<double> Growth, Slowdown;
  for (size_t I = 0; I < N; ++I) {
    const BatchOp &Op = Counted[I];
    const BatchImage &B = Corpus[I];
    if (!Op.Wrote)
      continue;
    PassRoutines += Op.Routines;
    Growth.push_back(static_cast<double>(Op.BytesOut) /
                     static_cast<double>(B.Bytes.size()));
    Slowdown.push_back(static_cast<double>(Op.InstsEdited) /
                       static_cast<double>(B.Original.Insts));
    addEditCounts(O.Layers, Op.Stats, static_cast<double>(B.Bytes.size()),
                  static_cast<double>(Op.BytesOut),
                  static_cast<double>(B.Original.Insts),
                  static_cast<double>(Op.InstsEdited), Op.Checks);
    O.Detail["images_inferred"] += Op.Inferred;
  }
  if (StrippedRoutines) {
    O.Layers["core.read_stripped_us_per_routine"] = {
        StrippedReadSec * 1e6 / StrippedRoutines, "us"};
    O.Layers["analysis.verify_stripped_us_per_routine"] = {
        StrippedVerifySec * 1e6 / StrippedRoutines, "us"};
  }
  MetricMap &E = O.EndToEnd;
  E["routines_per_s"] = {EditSec > 0 ? Routines / EditSec : 0.0,
                         "routines/s"};
  E["verify_routines_per_s"] = {VerifySec > 0 ? Routines / VerifySec : 0.0,
                                "routines/s"};
  // The latency of a batch job that edits the corpus once (open through
  // write of every image), over the passes. Per image, the corpus's mix of
  // 4000- and 2000-routine images would put the median in the gap between
  // the two sizes.
  E["latency_p50_ms"] = {median(PassMs), "ms"};
  E["code_growth_x"] = {geomean(Growth), "x"};
  E["run_slowdown_x"] = {geomean(Slowdown), "x"};
  O.Detail["latency_samples"] = static_cast<double>(PassMs.size());
  O.Detail["passes"] = Passes;
  O.Detail["routines_edited"] = Routines;
  O.Detail["routines_per_pass"] = PassRoutines;
  O.Detail["window_s"] = Wall;
  return O;
}

// --- Serve workload (serve) -------------------------------------------------

struct ServeConfig {
  unsigned Images = 8;
  unsigned Routines = 200;
  unsigned Clients = 3;
  unsigned DispatchWorkers = 3;
  unsigned ScrapeIntervalMs = 10;
};

const char *const ServeTools[] = {"qpt:edges", "qpt:blocks"};

/// One (image, tool) pair a client may request.
struct ServeKey {
  size_t Image = 0;
  const char *Tool = "";
  std::vector<uint8_t> Reference; ///< Cold-service edited image bytes.
  uint64_t InstsEdited = 0;
  unsigned Routines = 0;
  Executable::EditStats Stats;
  unsigned Checks = 0;
};

struct ServeCorpus {
  std::vector<BatchImage> Images;
  std::vector<ServeKey> Keys;
  std::unique_ptr<EditService> Service; ///< Warmed, ready to measure.
};

ServeLimits measuredLimits(const ServeConfig &C) {
  ServeLimits L;
  L.MaxInFlight = std::max(8u, C.Clients); // Nothing is shed.
  L.CacheCapacity = 16;
  L.DispatchWorkers = C.DispatchWorkers;
  return L;
}

ServeRequest makeRequest(const ServeCorpus &S, const ServeKey &K,
                         uint64_t Rid) {
  ServeRequest Req;
  Req.ToolSpec = K.Tool;
  Req.Threads = 1;
  Req.RequestId = Rid;
  Req.ImageBytes = S.Images[K.Image].Bytes;
  return Req;
}

/// Builds one key's reference: a cold EditService answer, VM-checked
/// against the original. Empty on success; else the cause.
std::string buildReference(const ServeCorpus &S, ServeKey &K,
                           EditService &Cold) {
  Expected<ServeResponse> Resp =
      decodeResponse(Cold.handleFrame(encodeRequest(makeRequest(S, K, 0))));
  if (Resp.hasError() || Resp.value().Status != ServeStatus::Ok)
    return "cold service: " + judgeResponse(Resp, {});
  K.Reference = std::move(Resp.value().EditedImage);
  Expected<SxfFile> Edited = SxfFile::deserialize(K.Reference);
  if (Edited.hasError())
    return "reference does not load: " + Edited.error().describe();
  VmRun Run = runVm(Edited.value());
  K.InstsEdited = Run.Insts;
  std::string VmWhy = compareRuns(S.Images[K.Image].Original, Run);
  if (!VmWhy.empty())
    return "reference run: " + VmWhy;
  return "";
}

/// Cross-checks one key's reference byte for byte against a direct batch
/// edit with the same tool, and verifies that edit with verifyEdit, adding
/// its time to \p VerifySec. Empty on success; else the cause.
std::string crossCheckReference(const ServeCorpus &S, ServeKey &K,
                                double &VerifySec) {
  Expected<SxfFile> In = SxfFile::deserialize(S.Images[K.Image].Bytes);
  if (In.hasError())
    return "image does not load: " + In.error().describe();
  // edit-*'s pipeline threads, so verifyEdit runs as it does there; the
  // service edits at Threads=1, so the byte comparison also checks that the
  // output does not depend on the thread count.
  Executable::Options Opts;
  Opts.Threads = BatchConfig().Threads;
  Expected<std::unique_ptr<Executable>> Exec =
      Executable::openImage(std::move(In.value()), Opts);
  if (Exec.hasError() || Exec.value()->readContents().hasError())
    return "batch cross-check could not analyze the image";
  K.Routines = static_cast<unsigned>(Exec.value()->routines().size());
  Qpt2Profiler::Options QOpts;
  QOpts.CountBlocks = std::strcmp(K.Tool, "qpt:edges") != 0;
  QOpts.CountEdges = std::strcmp(K.Tool, "qpt:blocks") != 0;
  Qpt2Profiler Qpt(*Exec.value(), QOpts);
  Qpt.instrument();
  Expected<SxfFile> Batch = Exec.value()->writeEditedExecutable();
  if (Batch.hasError() || Batch.value().serialize() != K.Reference)
    return "batch edit differs from the cold service's";
  K.Stats = Exec.value()->editStats();
  uint64_t T0 = nowNs();
  DiagnosticReport Report = verifyEdit(*Exec.value(), Batch.value());
  VerifySec += secondsSince(T0);
  K.Checks = Report.checksRun();
  if (Report.errorCount())
    return "verifyEdit reported errors on the reference";
  return "";
}

/// Setup: generate the images, run the originals, build every key's
/// reference (4 threads), then warm a fresh measured service with every key
/// once. Returns the first failure cause, if any.
std::string setupServe(const ServeConfig &C, uint64_t Seed, ServeCorpus &S) {
  S.Images.assign(C.Images, BatchImage());
  S.Keys.clear();
  for (size_t I = 0; I < C.Images; ++I)
    for (const char *Tool : ServeTools) {
      ServeKey K;
      K.Image = I;
      K.Tool = Tool;
      S.Keys.push_back(std::move(K));
    }
  ServeLimits ColdLimits;
  ColdLimits.CacheCapacity = 0;
  ColdLimits.MaxInFlight = 0;
  ColdLimits.DispatchWorkers = 4;
  EditService Cold(ColdLimits);
  std::atomic<size_t> Next{0};
  std::mutex FailM;
  std::string Failure;
  auto work = [&](const std::function<std::string(size_t)> &Fn, size_t Count) {
    Next = 0;
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < 4; ++W)
      Workers.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Count;) {
          std::string Why = Fn(I);
          if (!Why.empty()) {
            std::lock_guard<std::mutex> G(FailM);
            if (Failure.empty())
              Failure = Why;
          }
        }
      });
    for (std::thread &T : Workers)
      T.join();
  };
  work(
      [&](size_t I) {
        BatchImage &B = S.Images[I];
        B.Arch = AllTargetArches[I % std::size(AllTargetArches)];
        SxfFile Image = generateWorkload(
            B.Arch, corpusOptions(deriveSeed(Seed, 100 + I), C.Routines));
        B.Original = runVm(Image);
        B.Bytes = Image.serialize();
        return B.Original.Exited ? std::string()
                                 : std::string("original did not exit");
      },
      S.Images.size());
  work([&](size_t I) { return buildReference(S, S.Keys[I], Cold); },
       S.Keys.size());
  if (!Failure.empty())
    return Failure;
  S.Service = std::make_unique<EditService>(measuredLimits(C));
  for (const ServeKey &K : S.Keys) {
    std::string Why = judgeResponse(
        decodeResponse(
            S.Service->handleFrame(encodeRequest(makeRequest(S, K, 0)))),
        K.Reference);
    if (!Why.empty())
      return "warm-up: " + Why;
  }
  return "";
}

constexpr double VerifyMinSeconds = 5.0;

/// After setup, on one thread: cross-checks and verifies every key's
/// reference, in rounds over all keys until VerifyMinSeconds have passed.
/// The serve path never verifies; this gives serve-* the verifier figure
/// edit-* measure, timed without other load. Empty on success; else the
/// cause.
std::string verifyReferences(ServeCorpus &S, double &Routines,
                             double &VerifySec) {
  uint64_t Start = nowNs();
  do {
    for (ServeKey &K : S.Keys) {
      std::string Why = crossCheckReference(S, K, VerifySec);
      if (!Why.empty())
        return Why;
      Routines += K.Routines;
    }
  } while (secondsSince(Start) < VerifyMinSeconds);
  return "";
}

/// The numbers a status scrape exposes that the benchmark uses.
struct StatusView {
  double Rejected = 0, Errors = 0, Hits = 0, Misses = 0, Evictions = 0;
  std::map<std::string, std::pair<double, double>> Hist; ///< count, sum.
};

bool scrape(EditService &Service, StatusView &Out) {
  Expected<StatusResponse> Resp = decodeStatusResponse(
      Service.handleFrame(encodeStatusRequest(StatusRequest{})));
  if (Resp.hasError() || Resp.value().Status != ServeStatus::Ok)
    return false;
  Expected<JsonValue> Doc = parseJson(Resp.value().Body);
  if (Doc.hasError())
    return false;
  const JsonValue *Summary = Doc.value().find("summary");
  if (!Summary)
    return false;
  auto num = [](const JsonValue *Obj, const char *Key) {
    const JsonValue *V = Obj ? Obj->find(Key) : nullptr;
    return V ? V->asNumber() : 0.0;
  };
  const JsonValue *Counters = Summary->find("counters");
  const JsonValue *Cache = Summary->find("cache");
  Out.Rejected = num(Counters, "rejected");
  Out.Errors = num(Counters, "errors");
  Out.Hits = num(Cache, "hits");
  Out.Misses = num(Cache, "misses");
  Out.Evictions = num(Cache, "evictions");
  if (const JsonValue *Hists = Summary->find("histograms"))
    for (const JsonValue &H : Hists->Arr)
      if (const JsonValue *Name = H.find("name"))
        Out.Hist[Name->Str] = {num(&H, "count"), num(&H, "sum")};
  return true;
}

Outcome measureServe(const ServeConfig &C, ServeCorpus &S, uint64_t Seed,
                     double Seconds, uint64_t RidBase) {
  Outcome O;
  EditService &Service = *S.Service;
  StatusView Before, After;
  if (!scrape(Service, Before)) {
    noteBroken(O, "status scrape before the window failed");
    return O;
  }

  struct ClientLog {
    std::vector<double> LatencyMs;
    std::vector<size_t> OkKeys;
    double HandleSec = 0.0, ProtocolSec = 0.0;
    uint64_t Attempted = 0;
    std::map<std::string, uint64_t> Failures;
  };
  std::vector<ClientLog> Logs(C.Clients);
  std::vector<double> ScrapeMs;
  uint64_t ScrapeBad = 0;
  std::atomic<bool> Done{false};
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);

  std::thread Scraper([&] {
    std::vector<uint8_t> Frame = encodeStatusRequest(StatusRequest{});
    while (!Done.load(std::memory_order_acquire)) {
      Timed T("serve.scrape", 0, 0);
      Expected<StatusResponse> Resp =
          decodeStatusResponse(Service.handleFrame(Frame));
      ScrapeMs.push_back(T.stop() * 1e3);
      if (Resp.hasError() || Resp.value().Status != ServeStatus::Ok)
        ++ScrapeBad;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(C.ScrapeIntervalMs));
    }
  });
  std::vector<std::thread> Clients;
  for (unsigned Cl = 0; Cl < C.Clients; ++Cl)
    Clients.emplace_back([&, Cl] {
      ClientLog &Log = Logs[Cl];
      Rng R(deriveSeed(Seed, 1000 + Cl));
      uint64_t Rid = RidBase + (static_cast<uint64_t>(Cl + 1) << 40);
      while (nowNs() < Deadline) {
        ++Rid;
        Timed Root("request", 0, Rid);
        size_t KeyIndex = 0;
        ServeRequest Req;
        {
          Timed T("workload", Root.id(), Rid);
          KeyIndex = static_cast<size_t>(R.below(S.Keys.size()));
          Req = makeRequest(S, S.Keys[KeyIndex], Rid);
        }
        std::vector<uint8_t> Frame, Reply;
        double Enc, Handle, Dec;
        {
          Timed T("serve.protocol", Root.id(), Rid);
          Frame = encodeRequest(Req);
          Enc = T.stop();
        }
        {
          Timed T("serve", Root.id(), Rid);
          Reply = Service.handleFrame(Frame);
          Handle = T.stop();
        }
        Expected<ServeResponse> Resp = [&] {
          Timed T("serve.protocol", Root.id(), Rid);
          Expected<ServeResponse> D = decodeResponse(Reply);
          Dec = T.stop();
          return D;
        }();
        ++Log.Attempted;
        std::string Why;
        {
          Timed T("oracle", Root.id(), Rid);
          Why = judgeResponse(Resp, S.Keys[KeyIndex].Reference);
        }
        if (!Why.empty()) {
          ++Log.Failures[Why];
          continue;
        }
        Log.LatencyMs.push_back((Enc + Handle + Dec) * 1e3);
        Log.HandleSec += Handle;
        Log.ProtocolSec += Enc + Dec;
        Log.OkKeys.push_back(KeyIndex);
      }
    });
  for (std::thread &T : Clients)
    T.join();
  double Wall = secondsSince(Start);
  Done.store(true, std::memory_order_release);
  Scraper.join();
  if (!scrape(Service, After))
    noteBroken(O, "status scrape after the window failed");

  std::vector<double> LatencyMs;
  double HandleSec = 0, ProtocolSec = 0, Routines = 0;
  std::vector<double> Growth, Slowdown;
  for (ClientLog &Log : Logs) {
    O.Attempted += Log.Attempted;
    O.Failed += Log.Attempted - Log.OkKeys.size();
    for (const auto &[Why, Count] : Log.Failures)
      noteReason(O, Why, Count);
    LatencyMs.insert(LatencyMs.end(), Log.LatencyMs.begin(),
                     Log.LatencyMs.end());
    HandleSec += Log.HandleSec;
    ProtocolSec += Log.ProtocolSec;
    for (size_t K : Log.OkKeys) {
      const ServeKey &Key = S.Keys[K];
      const BatchImage &Img = S.Images[Key.Image];
      Routines += Key.Routines;
      Growth.push_back(static_cast<double>(Key.Reference.size()) /
                       static_cast<double>(Img.Bytes.size()));
      Slowdown.push_back(static_cast<double>(Key.InstsEdited) /
                         static_cast<double>(Img.Original.Insts));
    }
  }
  size_t Ok = LatencyMs.size();
  MetricMap &E = O.EndToEnd;
  E["routines_per_s"] = {Routines / Wall, "routines/s"};
  E["latency_p50_ms"] = {quantile(LatencyMs, 0.5), "ms"};
  E["code_growth_x"] = {geomean(Growth), "x"};
  E["run_slowdown_x"] = {geomean(Slowdown), "x"};
  O.Layers["serve.latency_p99_ms"] = {quantile(LatencyMs, 0.99), "ms"};
  O.Detail["latency_samples"] = static_cast<double>(Ok);
  O.Detail["latency_p99_samples_beyond"] = std::floor(Ok * 0.01);
  O.Detail["requests_per_s"] = Ok / Wall;
  O.Detail["window_s"] = Wall;
  O.Detail["scrapes"] = static_cast<double>(ScrapeMs.size());
  if (ScrapeBad)
    noteBroken(O, std::to_string(ScrapeBad) + " scrapes were not OK");

  // Per-layer: the service's own busy time from the scrape deltas, the
  // rest from the client side.
  auto delta = [&](const char *Name, bool Sum) {
    auto B = Before.Hist[Name], A = After.Hist[Name];
    return Sum ? A.second - B.second : A.first - B.first;
  };
  double MeanRoutines = 0;
  for (const ServeKey &K : S.Keys)
    MeanRoutines += K.Routines;
  MeanRoutines /= static_cast<double>(S.Keys.size());
  double AnalyzeUs = delta("serve.phase.analyze_us", true);
  double InstrumentUs = delta("serve.phase.instrument_us", true);
  double WriteUs = delta("serve.phase.write_us", true);
  double Served = delta("serve.phase.analyze_us", false) * MeanRoutines;
  double Hits = After.Hits - Before.Hits;
  double Attempts = Hits + After.Misses - Before.Misses;
  MetricMap &L = O.Layers;
  L["core.read_us_per_routine"] = {Served ? AnalyzeUs / Served : 0.0, "us"};
  L["tools.instrument_us_per_routine"] = {
      Served ? InstrumentUs / Served : 0.0, "us"};
  L["core.write_us_per_routine"] = {Served ? WriteUs / Served : 0.0, "us"};
  L["serve.cache_hit_ratio"] = {Attempts ? Hits / Attempts : 0.0, "ratio"};
  L["serve.cache_evictions"] = {After.Evictions - Before.Evictions, "count"};
  L["serve.analyze_ms"] = {AnalyzeUs / 1e3, "ms"};
  L["serve.instrument_ms"] = {InstrumentUs / 1e3, "ms"};
  L["serve.write_ms"] = {WriteUs / 1e3, "ms"};
  L["serve.self_ms"] = {
      HandleSec * 1e3 - (AnalyzeUs + InstrumentUs + WriteUs) / 1e3, "ms"};
  L["serve.protocol_us"] = {Ok ? ProtocolSec * 1e6 / Ok : 0.0, "us"};
  L["serve.rejected"] = {After.Rejected - Before.Rejected, "count"};
  L["serve.errors"] = {After.Errors - Before.Errors, "count"};
  L["serve.scrape_p99_ms"] = {quantile(ScrapeMs, 0.99), "ms"};
  for (const ServeKey &K : S.Keys) {
    const BatchImage &Img = S.Images[K.Image];
    addEditCounts(L, K.Stats, static_cast<double>(Img.Bytes.size()),
                  static_cast<double>(K.Reference.size()),
                  static_cast<double>(Img.Original.Insts),
                  static_cast<double>(K.InstsEdited), K.Checks);
  }
  return O;
}

// --- Main ---------------------------------------------------------------------

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string TraceOut;
  std::string GitRev = "unknown";
  std::string SourceDigest = "unknown";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--selftest") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--trace-out")
      A.TraceOut = V;
    else if (K == "--git-rev")
      A.GitRev = V;
    else if (K == "--source-digest")
      A.SourceDigest = V;
    else
      return false;
  }
  return A.SelfTest || (!A.Workload.empty() && A.Seconds > 0);
}

/// The workloads: each a setup (timed, repeated) and a measured window.
struct Workload {
  const char *Name;
  bool Serve;
  BatchConfig Batch;
  ServeConfig ServeCfg;
};

const Workload Workloads[] = {
    {"edit", false, {4000, 2000, 2, true}, {}},
    {"serve", true, {}, {16, 200, 3, 3, 10}},
    // Not in BENCHMARK.json: reproduces the known failure (NOTES.md).
    {"edit-stripped-tail", false, {0, 500, 2}, {}},
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const MetricMap &M) {
  std::string S = "{";
  bool First = true;
  for (const auto &[Name, Metric] : M) {
    S += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
         jsonNumber(Metric.Value) + ", \"unit\": \"" + Metric.Unit + "\"}";
    First = false;
  }
  return S + "}";
}

/// An untraced run sets up at least SetupMinRepeats times and until
/// SetupMinSeconds have passed (at most SetupMaxRepeats); setup_s is the
/// median. A traced run sets up once.
constexpr unsigned SetupMinRepeats = 3;
constexpr unsigned SetupMaxRepeats = 50;
constexpr double SetupMinSeconds = 2.0;

/// The layers spans are recorded for (module names).
const char *const SpanLayers[] = {"workload",   "sxf",
                                  "core.read",  "tools",
                                  "core.write", "analysis.verify",
                                  "vm",         "serve"};

/// Every metric the traced run prints, with its unit.
const std::pair<std::string, const char *> LayerMetrics[] = {
    {"core.read_us_per_routine", "us"},
    {"tools.instrument_us_per_routine", "us"},
    {"core.write_us_per_routine", "us"},
    {"analysis.verify_us_per_routine", "us"},
    {"core.read_stripped_us_per_routine", "us"},
    {"analysis.verify_stripped_us_per_routine", "us"},
    {"analysis.verify_checks", "count"},
    {"tools.snippets", "count"},
    {"core.delay_slots_folded", "count"},
    {"core.translation_sites", "count"},
    {"core.snippet_spills", "count"},
    {"sxf.bytes_in", "bytes"},
    {"sxf.bytes_out", "bytes"},
    {"vm.insts_original", "count"},
    {"vm.insts_edited", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.analyze_ms", "ms"},
    {"serve.instrument_ms", "ms"},
    {"serve.write_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"serve.protocol_us", "us"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.scrape_p99_ms", "ms"},
    {"workload.busy_ms", "ms"},
    {"sxf.busy_ms", "ms"},
    {"core.read.busy_ms", "ms"},
    {"tools.busy_ms", "ms"},
    {"core.write.busy_ms", "ms"},
    {"analysis.verify.busy_ms", "ms"},
    {"vm.busy_ms", "ms"},
    {"serve.busy_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"trace.overhead_routines_per_s", "routines/s"},
    {"trace.overhead_latency_p50_ms", "ms"},
    {"trace.spans", "count"},
};

/// Runs the workload's setup (repeated) and one measured window. Layer
/// metrics derive from spans when tracing is on.
int runWorkload(const Args &A, const Workload &W) {
  unsigned Hw = std::thread::hardware_concurrency();
  std::printf("eel-perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              W.Name, static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  std::printf("provenance: {\"hardware_threads\": %u, \"nproc\": %ld, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_rev\": "
              "\"%s\", \"source_digest\": \"%s\", \"seed\": %llu, "
              "\"clients\": %u, \"pipeline_threads\": %u}\n",
              Hw, sysconf(_SC_NPROCESSORS_ONLN), EEL_PERFBENCH_COMPILER,
              EEL_PERFBENCH_BUILD_TYPE, A.GitRev.c_str(),
              A.SourceDigest.c_str(), static_cast<unsigned long long>(A.Seed),
              W.Serve ? W.ServeCfg.Clients : 1u,
              W.Serve ? 1u : W.Batch.Threads);

  // Setup, repeated; the last one's state is kept.
  std::vector<double> SetupSec;
  std::vector<BatchImage> Batch;
  ServeCorpus Serve;
  uint64_t SetupStart = nowNs();
  for (unsigned R = 0;; ++R) {
    if (A.Trace ? R == 1
                : R >= SetupMaxRepeats ||
                      (R >= SetupMinRepeats &&
                       secondsSince(SetupStart) >= SetupMinSeconds))
      break;
    uint64_t T0 = nowNs();
    if (W.Serve) {
      Serve.Service.reset();
      std::string Why = setupServe(W.ServeCfg, A.Seed, Serve);
      if (!Why.empty()) {
        std::fprintf(stderr, "setup failed: %s\n", Why.c_str());
        return 1;
      }
    } else {
      Batch = setupBatch(W.Batch, A.Seed);
      for (const BatchImage &B : Batch)
        if (!B.Original.Exited) {
          std::fprintf(stderr, "setup failed: %s original did not exit\n",
                       targetFor(B.Arch).name());
          return 1;
        }
    }
    SetupSec.push_back(secondsSince(T0));
  }
  double VerifyRoutines = 0, VerifySec = 0;
  if (W.Serve) {
    std::string Why = verifyReferences(Serve, VerifyRoutines, VerifySec);
    if (!Why.empty()) {
      std::fprintf(stderr, "reference check failed: %s\n", Why.c_str());
      return 1;
    }
  }

  auto measure = [&](double Seconds, uint64_t RidBase) {
    return W.Serve ? measureServe(W.ServeCfg, Serve, A.Seed, Seconds, RidBase)
                   : measureBatch(W.Batch, Batch, Seconds);
  };
  Outcome O;
  MetricMap Final;
  if (!A.Trace) {
    bool Reset = resetPeakRss();
    O = measure(A.Seconds, 0);
    Final = O.EndToEnd;
    Final["setup_s"] = {median(SetupSec), "s"};
    Final["peak_rss_mb"] = {peakRssMb(Reset), "MB"};
    if (W.Serve)
      Final["verify_routines_per_s"] = {VerifyRoutines / VerifySec,
                                        "routines/s"};
    Final["success_rate"] = {
        O.Attempted ? static_cast<double>(O.Attempted - O.Failed) /
                          static_cast<double>(O.Attempted)
                    : 0.0,
        "ratio"};
  } else {
    Outcome Plain = measure(A.Seconds / 2, 0);
    SpanLog::instance().setEnabled(true);
    O = measure(A.Seconds / 2, 1ull << 56);
    SpanLog::instance().setEnabled(false);
    O.Attempted += Plain.Attempted;
    O.Failed += Plain.Failed;
    O.Broken |= Plain.Broken;
    for (const auto &[Why, Count] : Plain.FailureReasons)
      noteReason(O, Why, Count);
    std::vector<Span> Spans = SpanLog::instance().collect();
    std::map<std::string, LayerTime> LT = layerTimes(Spans);
    MetricMap &L = O.Layers;
    for (const char *Layer : SpanLayers)
      L[std::string(Layer) + ".busy_ms"].Value = LT[Layer].BusyMs;
    // The benchmark's own glue: root-span time no layer call covers.
    L["bench.self_ms"].Value = LT[W.Serve ? "request" : "edit"].SelfMs;
    if (W.Serve) {
      // Inside handleFrame the service's own phase histograms are the
      // outside view of these layers.
      L["core.read.busy_ms"].Value = L["serve.analyze_ms"].Value;
      L["tools.busy_ms"].Value = L["serve.instrument_ms"].Value;
      L["core.write.busy_ms"].Value = L["serve.write_ms"].Value;
      L["analysis.verify_us_per_routine"].Value =
          VerifySec * 1e6 / VerifyRoutines;
    } else {
      double Routines = O.Detail["routines_edited"];
      auto perRoutine = [&](const char *Layer) {
        return Routines ? LT[Layer].BusyMs * 1e3 / Routines : 0.0;
      };
      L["core.read_us_per_routine"].Value = perRoutine("core.read");
      L["tools.instrument_us_per_routine"].Value = perRoutine("tools");
      L["core.write_us_per_routine"].Value = perRoutine("core.write");
      L["analysis.verify_us_per_routine"].Value = perRoutine("analysis.verify");
    }
    // Tracing overhead: the traced half's headline numbers minus the
    // untraced half's.
    L["trace.overhead_routines_per_s"].Value =
        O.EndToEnd["routines_per_s"].Value -
        Plain.EndToEnd["routines_per_s"].Value;
    L["trace.overhead_latency_p50_ms"].Value =
        O.EndToEnd["latency_p50_ms"].Value -
        Plain.EndToEnd["latency_p50_ms"].Value;
    L["trace.spans"].Value = static_cast<double>(Spans.size());
    // Every per-layer metric, in every workload; one a workload does not
    // exercise reads 0.
    for (const auto &[Name, Unit] : LayerMetrics)
      Final[Name] = {L.count(Name) ? L[Name].Value : 0.0, Unit};
    if (!A.TraceOut.empty() && !writeSpans(Spans, A.TraceOut)) {
      std::fprintf(stderr, "cannot write spans to %s\n", A.TraceOut.c_str());
      return 1;
    }
  }

  for (const auto &[Why, Count] : O.FailureReasons)
    std::printf("failure: %s (x%llu)\n", Why.c_str(),
                static_cast<unsigned long long>(Count));
  std::printf("detail: {");
  bool First = true;
  for (const auto &[K, V] : O.Detail) {
    std::printf("%s\"%s\": %s", First ? "" : ", ", K.c_str(),
                jsonNumber(V).c_str());
    First = false;
  }
  std::printf("}\n");
  for (const auto &[Name, M] : Final)
    std::printf("  %-36s %14.4f %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  bool Correct = O.Attempted > 0 && O.Failed == 0 && !O.Broken;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed),
              metricsJson(Final).c_str());
  std::fflush(stdout);
  return 0;
}

/// Proves the oracles catch what they exist to catch: one corrupted edited
/// word in a batch edit, and one corrupted serve response, must each be
/// counted as a failure, while the uncorrupted ones pass.
int selfTest() {
  int Bad = 0;
  BatchConfig C{40, 40, 2};
  std::vector<BatchImage> Corpus = setupBatch(C, 7);
  for (const BatchImage &B : Corpus) {
    BatchOp Clean = editOne(C, B, 1);
    BatchOp Broken = editOne(C, B, 2, [](SxfFile &Edited) {
      uint32_t W = Edited.readWord(Edited.Entry).value_or(0);
      Edited.writeWord(Edited.Entry, ~W);
    });
    bool Ok = Clean.Failure.empty() && !Broken.Failure.empty();
    std::printf("selftest batch %-6s %-8s clean=%s corrupted=%s -> %s\n",
                targetFor(B.Arch).name(), B.Stripped ? "stripped" : "symboled",
                Clean.Failure.empty() ? "pass" : "FAIL",
                Broken.Failure.empty() ? "pass" : "fail", Ok ? "ok" : "WRONG");
    if (!Clean.Failure.empty())
      std::printf("  clean failure: %s\n", Clean.Failure.c_str());
    Bad += !Ok;
  }
  ServeConfig SC{2, 30, 1, 1, 5};
  ServeCorpus S;
  std::string Why = setupServe(SC, 7, S);
  if (!Why.empty()) {
    std::printf("selftest serve setup failed: %s\n", Why.c_str());
    return 1;
  }
  const ServeKey &K = S.Keys[0];
  Expected<ServeResponse> Resp = decodeResponse(
      S.Service->handleFrame(encodeRequest(makeRequest(S, K, 1))));
  std::string CleanWhy = judgeResponse(Resp, K.Reference);
  std::string BrokenWhy;
  if (CleanWhy.empty()) {
    ServeResponse Corrupted = Resp.value();
    Corrupted.EditedImage[Corrupted.EditedImage.size() / 2] ^= 0x5a;
    BrokenWhy = judgeResponse(decodeResponse(encodeResponse(Corrupted)),
                              K.Reference);
  }
  bool Ok = CleanWhy.empty() && !BrokenWhy.empty();
  std::printf("selftest serve clean=%s corrupted=%s -> %s\n",
              CleanWhy.empty() ? "pass" : "FAIL",
              BrokenWhy.empty() ? "pass" : "fail", Ok ? "ok" : "WRONG");
  Bad += !Ok;
  std::printf("selftest: %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: eel-perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       eel-perfbench --selftest\n");
    return 2;
  }
  if (A.SelfTest)
    return selfTest();
  for (const Workload &W : Workloads)
    if (A.Workload == W.Name)
      return runWorkload(A, W);
  std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
  return 2;
}
