//===--- CounterParityCheck.h - evm-counter-parity ------------------------===//
//
// Statically audits the metric vocabulary: every metric-name string that
// reaches the evm::obs registry (MetricsRegistry::counter/gauge/latency and
// the GetCounter/GetGauge/GetLatency helpers) must resolve to a compile-time
// constant and must appear in the declared manifest
// (tools/tidy/counters.txt) with a role that permits the file using it.
//
// Roles partition src/ into the serial match path (core/match_stages), the
// MapReduce match path (core/matcher), the streaming pipeline, the MR
// engine, and everything else. The manifest tags each name
// with the roles expected to touch it; a counter tagged for both the serial
// and MapReduce paths but referenced from only one is the mode-parity drift
// PR 2 and PR 6 fixed by hand — per-TU the check rejects uses outside the
// declared roles, and tools/tidy/postpass.py (or the tools/lint.py
// whole-tree fallback) verifies the coverage direction across TUs.
//
// A name the evaluator cannot fold to a constant is itself a finding:
// dynamic metric names defeat static parity auditing (and handle-resolution
// is meant to happen at setup time anyway).
//
//===----------------------------------------------------------------------===//

#ifndef EVM_TIDY_COUNTER_PARITY_CHECK_H
#define EVM_TIDY_COUNTER_PARITY_CHECK_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace evm {

class CounterParityCheck : public ClangTidyCheck {
public:
  CounterParityCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void onEndOfTranslationUnit() override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

private:
  struct Use {
    std::string Name;
    std::string Role;
    std::string File;
    unsigned Line = 0;
  };

  void loadManifest();
  std::string roleOf(llvm::StringRef Path) const;
  /// Folds the metric-name argument to its string value, looking through
  /// std::string construction, casts, and constexpr char-array constants.
  bool resolveName(const Expr *Arg, ASTContext &Ctx, std::string &Out) const;

  const std::string ManifestFile;
  const std::string CountersDir;
  const std::string RawSerialFiles;
  const std::string RawMapReduceFiles;
  const std::string RawStreamDirs;
  const std::string RawEngineDirs;
  const std::string RawAuditedPrefixes;
  const std::vector<std::string> SerialFiles;
  const std::vector<std::string> MapReduceFiles;
  const std::vector<std::string> StreamDirs;
  const std::vector<std::string> EngineDirs;
  const std::vector<std::string> AuditedPrefixes;

  // name -> allowed roles, from the manifest.
  std::map<std::string, std::set<std::string>> Manifest;
  bool ManifestLoaded = false;

  std::vector<Use> Uses;
  std::string MainFilePath;
};

} // namespace evm
} // namespace tidy
} // namespace clang

#endif // EVM_TIDY_COUNTER_PARITY_CHECK_H
