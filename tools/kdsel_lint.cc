// kdsel_lint: a dependency-free whole-program static checker for
// repo-specific rules.
//
// Architecture (see DESIGN.md "Static analysis architecture"):
//
//   tokenize   comment/string/char/raw-string aware lexer; records
//              suppression markers, #include lines and which lines
//              carry code. No std::regex anywhere: every rule matches
//              over the token stream.
//   extract    per file: namespaces, classes (with bases), member
//              declarations (types, mutex members, KDSEL_GUARDED_BY),
//              function definitions/declarations (return types,
//              KDSEL_HOT / KDSEL_ALLOC_OK / KDSEL_REQUIRES).
//   analyze    per function body: locals, guard (lock_guard/
//              unique_lock/scoped_lock) scopes, receiver-typed call
//              sites, guarded-member accesses, allocation constructs.
//   link       cross-file call graph over the whole tree (typed
//              receiver resolution, inheritance-aware dispatch), then
//              the rule passes below.
//
// Per-line rules (token-based, messages unchanged):
//
//   discarded-status        bare-statement call of a Status/StatusOr
//                           returning function
//   unchecked-value         .value() whose receiver has no prior
//                           ok()/has_value()/CHECK-style evidence in
//                           the enclosing function
//   naked-new               raw `new` / malloc-family allocation
//   raw-parse               std::sto*/ato*/strto* outside src/common/
//   nonreproducible-random  rand()/srand()/random_device/time(nullptr)
//   lock-across-score       a mutex guard live across a detector
//                           `Score(...)` call
//   raw-thread              std::thread/std::async outside src/common/,
//                           src/serve/ and src/net/
//   raw-simd                intrinsics or intrinsic headers outside
//                           src/nn/kernels/
//   raw-socket              socket(2)/epoll_*/accept(2) outside
//                           src/net/
//   raw-timing              steady_clock/high_resolution_clock or
//                           clock_gettime(2)/gettimeofday(2) calls
//                           outside src/obs/, src/common/ and bench/
//
// Whole-program rules (need the call graph):
//
//   lock-order-inversion    the global lock graph (edges: mutex A held
//                           while B is acquired, directly or via any
//                           callee) contains a cycle
//   guarded-by              a KDSEL_GUARDED_BY(m) member is accessed
//                           without `m` held, or a KDSEL_REQUIRES(m)
//                           function is called without `m` held
//   alloc-in-hot-path       an allocating construct (new, malloc,
//                           make_unique/make_shared, container growth
//                           on a receiver never reserve()d anywhere,
//                           to_string/StrFormat) is reachable from a
//                           KDSEL_HOT root; KDSEL_ALLOC_OK functions
//                           are trusted boundaries the walk skips
//
// Diagnostics print as `file:line: rule: message`, one per line, sorted
// (--format=json and --format=sarif emit the same findings as JSON /
// SARIF 2.1.0 for machine consumption and GitHub code scanning).
// Exit code: 0 clean, 1 violations found, 2 usage/IO error.
//
// Suppressions: append `// kdsel-lint: allow(rule)` (comma-separated
// for several rules) to the offending line, or place the comment alone
// on the line directly above it. In --self-check mode, suppressing
// discarded-status, lock-order-inversion, guarded-by or
// alloc-in-hot-path outside tests/ is itself a finding: production
// code must never silence those.
//
// Scanning: by default walks src/, tools/, bench/ and tests/ under
// --root (default: cwd), skipping tests/lint_fixtures/. Explicit file
// or directory arguments override the default set and are scanned
// verbatim (this is how lint_test points the tool at the fixtures).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Diagnostic {
  std::string file;  // As reported: relative to root when possible.
  size_t line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return message < other.message;
  }
  bool operator==(const Diagnostic& other) const {
    return file == other.file && line == other.line && rule == other.rule &&
           message == other.message;
  }
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"discarded-status", "result of a Status/StatusOr call is discarded"},
    {"unchecked-value", ".value() without a nearby ok()/has_value() check"},
    {"naked-new", "raw new/malloc-family allocation"},
    {"raw-parse", "std::sto*/ato*/strto* outside src/common/"},
    {"nonreproducible-random", "unseeded randomness or wall-clock seeding"},
    {"lock-across-score", "mutex held across a detector Score() call"},
    {"raw-thread",
     "std::thread/std::async outside src/common/, src/serve/ and src/net/"},
    {"raw-simd", "intrinsics or intrinsic headers outside src/nn/kernels/"},
    {"raw-socket", "socket(2)/epoll_*/accept(2) outside src/net/"},
    {"raw-timing",
     "steady_clock/high_resolution_clock or clock_gettime/gettimeofday "
     "outside src/obs/, src/common/ and bench/"},
    {"lock-order-inversion",
     "inconsistent mutex acquisition order across the call graph can "
     "deadlock"},
    {"guarded-by",
     "KDSEL_GUARDED_BY member accessed (or KDSEL_REQUIRES function called) "
     "without the named mutex held"},
    {"alloc-in-hot-path",
     "allocating construct reachable from a KDSEL_HOT entry point"},
};

bool IsKnownRule(const std::string& name) {
  for (const RuleInfo& rule : kRules) {
    if (name == rule.name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class Tok : uint8_t { kIdent, kNumber, kString, kChar, kPunct };

struct Token {
  Tok kind = Tok::kPunct;
  uint32_t line = 0;
  std::string text;
};

/// One source file, tokenized. Line numbers are 1-based.
struct SourceFile {
  std::string display_path;  // Path as printed in diagnostics.
  fs::path path;
  std::vector<Token> tokens;
  // Preprocessor lines: (line, full text without the leading '#').
  std::vector<std::pair<size_t, std::string>> pp_lines;
  // line number -> rules suppressed on that line.
  std::map<size_t, std::set<std::string>> suppressions;
  // Marker lines only (where a kdsel-lint: allow(...) comment sits).
  std::map<size_t, std::set<std::string>> markers;
  std::vector<bool> line_has_code;  // index = line number (0 unused).
  size_t line_count = 0;
  bool in_common = false;       // src/common/: exempt from raw-parse.
  bool in_thread_zone = false;  // src/common/, src/serve/ or src/net/.
  bool in_kernels = false;      // src/nn/kernels/: raw-simd home.
  bool in_timing_zone = false;  // src/obs/, src/common/ or bench/.
  bool in_net = false;          // src/net/: raw-socket home.
};

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Parses `kdsel-lint: allow(a, b)` out of one comment's text and
/// registers the suppression. `line` is where the comment starts;
/// comment-only lines also cover the following line (classic clang-tidy
/// NOLINTNEXTLINE ergonomics), resolved after tokenization in
/// FinishSuppressions() once line_has_code is complete.
void ParseSuppressionComment(SourceFile& file, const std::string& comment,
                             size_t line) {
  const char kTag[] = "kdsel-lint:";
  size_t at = comment.find(kTag);
  if (at == std::string::npos) return;
  at += sizeof(kTag) - 1;
  while (at < comment.size() && (comment[at] == ' ' || comment[at] == '\t')) {
    ++at;
  }
  const char kAllow[] = "allow(";
  if (comment.compare(at, sizeof(kAllow) - 1, kAllow) != 0) return;
  at += sizeof(kAllow) - 1;
  const size_t close = comment.find(')', at);
  if (close == std::string::npos) return;
  // Unknown names are dropped: a typo'd allow() fails to suppress, so
  // the original diagnostic still fires and the typo is self-evident.
  std::set<std::string> rules;
  std::string name;
  for (size_t i = at; i <= close; ++i) {
    const char c = i < close ? comment[i] : ',';
    if (c == ',') {
      if (IsKnownRule(name)) rules.insert(name);
      name.clear();
    } else if (c != ' ' && c != '\t') {
      name += c;
    }
  }
  if (rules.empty()) return;
  file.markers[line].insert(rules.begin(), rules.end());
  file.suppressions[line].insert(rules.begin(), rules.end());
}

/// After tokenization: comment-only marker lines extend to the next
/// line (line_has_code is only complete once the whole file is lexed).
void FinishSuppressions(SourceFile& file) {
  for (const auto& [line, rules] : file.markers) {
    const bool comment_only =
        line >= file.line_has_code.size() || !file.line_has_code[line];
    if (comment_only && line + 1 <= file.line_count) {
      file.suppressions[line + 1].insert(rules.begin(), rules.end());
    }
  }
}

void MarkCode(SourceFile& file, size_t line) {
  if (file.line_has_code.size() <= line) {
    file.line_has_code.resize(line + 1, false);
  }
  file.line_has_code[line] = true;
}

/// Lexes `text` into file.tokens. Comments and preprocessor lines
/// produce no tokens; suppression markers and #include lines are
/// recorded on the side.
void Tokenize(const std::string& text, SourceFile& file) {
  size_t i = 0;
  size_t line = 1;
  const size_t n = text.size();
  bool at_line_start = true;  // Only whitespace seen on this line so far.
  auto push = [&](Tok kind, std::string t) {
    MarkCode(file, line);
    file.tokens.push_back({kind, static_cast<uint32_t>(line), std::move(t)});
  };
  while (i < n) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor line (honoring backslash continuations). Tokens
      // are not emitted -- macro bodies would wreck extraction -- but
      // the text is kept for the raw-simd include check.
      const size_t pp_line = line;
      std::string pp;
      while (i < n) {
        if (text[i] == '\n') {
          if (!pp.empty() && pp.back() == '\\') {
            pp.pop_back();
            ++line;
            ++i;
            continue;
          }
          break;
        }
        pp += text[i];
        ++i;
      }
      file.pp_lines.emplace_back(pp_line, pp);
      MarkCode(file, pp_line);
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    if (c == '/' && next == '/') {
      const size_t comment_line = line;
      std::string comment;
      i += 2;
      while (i < n && text[i] != '\n') comment += text[i++];
      ParseSuppressionComment(file, comment, comment_line);
      continue;
    }
    if (c == '/' && next == '*') {
      size_t comment_line = line;
      std::string comment;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          ParseSuppressionComment(file, comment, comment_line);
          comment.clear();
          comment_line = line + 1;
          ++line;
        } else {
          comment += text[i];
        }
        ++i;
      }
      ParseSuppressionComment(file, comment, comment_line);
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    if (c == 'R' && next == '"') {
      // Raw string literal R"delim( ... )delim".
      size_t paren = text.find('(', i + 2);
      if (paren != std::string::npos) {
        const std::string delim =
            ")" + text.substr(i + 2, paren - i - 2) + "\"";
        size_t end = text.find(delim, paren + 1);
        if (end == std::string::npos) end = n;
        push(Tok::kString, "\"\"");
        for (size_t j = i; j < std::min(end + delim.size(), n); ++j) {
          if (text[j] == '\n') ++line;
        }
        i = std::min(end + delim.size(), n);
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string lit(1, quote);
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          lit += text[i];
          lit += text[i + 1];
          i += 2;
          continue;
        }
        if (text[i] == '\n') ++line;  // Unterminated; keep line count sane.
        lit += text[i++];
      }
      lit += quote;
      ++i;
      push(quote == '"' ? Tok::kString : Tok::kChar, std::move(lit));
      continue;
    }
    if (IsIdentStart(c)) {
      std::string ident;
      while (i < n && IsIdentChar(text[i])) ident += text[i++];
      push(Tok::kIdent, std::move(ident));
      continue;
    }
    if (IsDigit(c) || (c == '.' && IsDigit(next))) {
      std::string num;
      while (i < n && (IsIdentChar(text[i]) || text[i] == '.' ||
                       ((text[i] == '+' || text[i] == '-') && i > 0 &&
                        (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        num += text[i++];
      }
      push(Tok::kNumber, std::move(num));
      continue;
    }
    // Punctuation; merge the multi-character operators the parser
    // cares about (plus a few more so expressions stay one token).
    static const char* kTwo[] = {"::", "->", "<<", ">>", "<=", ">=", "==",
                                 "!=", "&&", "||", "+=", "-=", "*=", "/=",
                                 "|=", "&=", "^=", "%=", "++", "--"};
    std::string punct(1, c);
    for (const char* two : kTwo) {
      if (c == two[0] && next == two[1]) {
        punct = two;
        break;
      }
    }
    if (punct == "->" && i + 2 < n && text[i + 2] == '*') punct = "->*";
    if (punct == "." && next == '.' && i + 2 < n && text[i + 2] == '.') {
      punct = "...";
    }
    i += punct.size();
    push(Tok::kPunct, std::move(punct));
  }
  file.line_count = line;
  FinishSuppressions(file);
}

bool Suppressed(const SourceFile& file, size_t line, const char* rule) {
  auto it = file.suppressions.find(line);
  return it != file.suppressions.end() && it->second.count(rule) > 0;
}

// ---------------------------------------------------------------------------
// Program model
// ---------------------------------------------------------------------------

struct MemberInfo {
  std::string type_core;  // Unwrapped class-ish type name ("" if opaque).
  std::string guard;      // KDSEL_GUARDED_BY argument text ("" if none).
  bool is_mutex = false;
};

struct ClassInfo {
  std::string key;   // Fully scoped, e.g. "kdsel::serve::InferenceServer".
  std::string name;  // Last component.
  int file = -1;
  std::vector<std::string> base_names;  // Last components, resolved later.
  std::vector<std::string> base_keys;
  std::map<std::string, MemberInfo> members;
  std::map<std::string, std::string> method_ret;  // name -> return core.
  std::set<std::string> method_names;
  // Method name -> KDSEL_REQUIRES args collected from declarations.
  std::map<std::string, std::vector<std::string>> method_requires;
};

struct CallSite {
  uint32_t line = 0;
  std::string name;        // Callee as written (last chain component).
  std::string recv_class;  // Resolved receiver class key, "" if unknown.
  bool via_class_qual = false;  // Written as Class::name(...).
  std::vector<std::string> held;  // Mutex ids held at the call.
  std::vector<int> targets;       // Filled by ResolveCalls().
};

struct AllocSite {
  uint32_t line = 0;
  std::string kind;      // "new", "malloc", "make_unique", "growth", "format".
  std::string what;      // Display: method/function name.
  std::string receiver;  // For growth: receiver's final identifier.
};

struct LockEdge {
  std::string from;  // Mutex id held.
  std::string to;    // Mutex id acquired.
  int file = -1;
  uint32_t line = 0;
  std::string via;  // Callee name for transitive edges, "" for direct.
};

struct GuardedUse {
  int file = -1;
  uint32_t line = 0;
  std::string member;    // Display name.
  std::string mutex_id;  // Required mutex id.
  std::string mutex_disp;
  bool held = false;
};

struct FuncInfo {
  int file = -1;
  uint32_t line = 0;
  std::string class_key;  // "" for free functions.
  std::string name;
  std::string qual;  // class_key + "::" + name, or name.
  // Out-of-class definitions whose class lives in a file extracted
  // later can't resolve their class during the extraction pass; the
  // qualifier is kept here and LinkDeferredMethods() retries after
  // every file has been extracted.
  std::string cls_hint;   // Last class component of the qualifier.
  std::string path_hint;  // Full joined qualifier path (suffix match).
  bool has_body = false;
  size_t body_begin = 0, body_end = 0;  // Token range of the body.
  bool hot = false;
  bool alloc_ok = false;
  bool ctor_dtor = false;
  std::vector<std::string> requires_args;  // As written.
  std::vector<std::string> requires_ids;   // Resolved mutex ids.
  std::string ret_core;
  std::vector<std::pair<std::string, std::string>> params;  // name, type core.
  std::set<std::string> acquires;  // Mutex ids acquired in the body.
  std::set<std::string> acquires_eventually;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
};

struct GlobalVar {
  std::string type_core;
  std::string guard;
  bool is_mutex = false;
  int file = -1;
};

const std::set<std::string>& StatementKeywords() {
  static const std::set<std::string> kw = {
      "if",       "for",        "while",    "switch",     "return",
      "else",     "do",         "break",    "continue",   "case",
      "default",  "goto",       "new",      "delete",     "sizeof",
      "static",   "const",      "constexpr", "using",     "namespace",
      "class",    "struct",     "enum",     "union",      "template",
      "typename", "public",     "private",  "protected",  "virtual",
      "override", "final",      "try",      "catch",      "throw",
      "operator", "true",       "false",    "nullptr",    "void",
      "int",      "bool",       "float",    "double",     "char",
      "long",     "short",      "unsigned", "signed",     "auto",
      "co_return", "co_await",  "co_yield", "alignas",    "alignof",
      "decltype", "extern",     "friend",   "inline",     "mutable",
      "noexcept", "register",   "typedef",  "typeid",     "volatile",
      "explicit", "static_assert", "static_cast", "dynamic_cast",
      "const_cast", "reinterpret_cast"};
  return kw;
}

bool IsTypeQualifier(const std::string& t) {
  static const std::set<std::string> q = {
      "static", "inline",   "constexpr", "virtual", "explicit", "extern",
      "const",  "friend",   "mutable",   "typename", "volatile", "register",
      "KDSEL_HOT"};
  return q.count(t) > 0;
}

bool IsAmbiguousReturn(const std::string& t) {
  static const std::set<std::string> a = {
      "void",   "bool",   "int",      "unsigned", "long",     "float",
      "double", "char",   "auto",     "size_t",   "int64_t",  "uint64_t",
      "int32_t", "uint32_t"};
  return a.count(t) > 0;
}

bool IsMutexType(const std::string& t) {
  return t == "mutex" || t == "recursive_mutex" || t == "shared_mutex" ||
         t == "timed_mutex" || t == "recursive_timed_mutex";
}

bool IsGuardType(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
         t == "shared_lock";
}

/// Whole program: all files plus everything extracted from them.
class Program {
 public:
  std::vector<SourceFile> files;
  std::map<std::string, ClassInfo> classes;               // key -> info.
  std::multimap<std::string, std::string> classes_by_name;  // name -> key.
  std::vector<FuncInfo> funcs;
  std::multimap<std::string, int> funcs_by_name;  // simple name -> index.
  std::map<std::string, int> funcs_by_qual;       // qual -> first index.
  std::map<std::string, GlobalVar> globals;
  // Free function name -> return type core / requires (from decls too).
  std::map<std::string, std::string> free_ret;
  std::map<std::string, std::vector<std::string>> free_requires;
  std::set<std::string> status_names;     // Declared returning Status(Or).
  std::set<std::string> ambiguous_names;  // Also declared non-Status.
  // Receiver identifiers proven capacity-managed somewhere in the tree
  // (receiver of .reserve/.resize/.assign/.ResizeDiscard). Name-based
  // and global on purpose: setup and steady-state usually live in
  // different functions, and the rule must not require dataflow.
  std::set<std::string> reserve_proven;
  std::vector<LockEdge> lock_edges;
  std::vector<GuardedUse> guarded_uses;
  // Requires-violating call sites: (file, line, callee, mutex display).
  std::vector<std::tuple<int, uint32_t, std::string, std::string>>
      requires_violations;

  void ExtractFile(int fi);
  void ResolveBases();
  void LinkDeferredMethods();
  void AnalyzeBodies();
  void ResolveCalls();
  void ComputeAcquiresFixpoint();

  std::string FindClassKey(const std::string& name, int file_hint) const;

 private:
  friend class BodyAnalyzer;
};

// ---------------------------------------------------------------------------
// Extraction helpers
// ---------------------------------------------------------------------------

/// Skips a balanced <...> starting at `i` (toks[i] == "<"). Intended
/// for declaration/type contexts only. Returns the index just past the
/// closing '>', or `i` itself if the angles do not balance sanely
/// (then the caller treats '<' as less-than).
size_t TrySkipAngles(const std::vector<Token>& toks, size_t i) {
  if (i >= toks.size() || toks[i].text != "<") return i;
  int depth = 0;
  size_t j = i;
  for (; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      return i;  // Ran into a statement boundary: not template args.
    } else if (toks[j].kind == Tok::kPunct && t != "::" && t != "," &&
               t != "*" && t != "&" && t != "&&" && t != "(" && t != ")" &&
               t != "[" && t != "]" && t != "...") {
      return i;  // Operators that don't belong in a template arg list.
    } else if (t == "(") {
      // Function types in template args: skip the parens.
      int p = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++p;
        if (toks[j].text == ")" && --p == 0) break;
      }
    }
  }
  return i;
}

/// Skips a balanced group starting at toks[i] (one of ( [ {ends with
/// the matching closer). Returns index just past the closer.
size_t SkipBalanced(const std::vector<Token>& toks, size_t i) {
  if (i >= toks.size()) return i;
  const std::string& open = toks[i].text;
  std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == open) ++depth;
    else if (toks[j].text == close && --depth == 0) return j + 1;
  }
  return toks.size();
}

/// Core type of a declaration head: the last class-ish identifier,
/// unwrapping std::unique_ptr<T>/std::shared_ptr<T> to T. `begin..end`
/// covers the head tokens up to (not including) the declared name.
std::string TypeCoreOf(const std::vector<Token>& toks, size_t begin,
                       size_t end) {
  std::string core;
  for (size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (IsTypeQualifier(t.text) || t.text == "std") continue;
    if (t.text == "unique_ptr" || t.text == "shared_ptr") {
      // Unwrap: first class-ish identifier inside the angles.
      size_t j = i + 1;
      if (j < end && toks[j].text == "<") {
        for (++j; j < end && toks[j].text != ">"; ++j) {
          if (toks[j].kind == Tok::kIdent && toks[j].text != "std" &&
              toks[j].text != "const") {
            return toks[j].text;
          }
        }
      }
      return "unique_ptr";
    }
    core = t.text;
  }
  return core;
}

std::string Program::FindClassKey(const std::string& name,
                                  int file_hint) const {
  auto range = classes_by_name.equal_range(name);
  if (range.first == range.second) return "";
  std::string unique_key;
  int count = 0;
  for (auto it = range.first; it != range.second; ++it) {
    const ClassInfo& c = classes.at(it->second);
    if (c.file == file_hint) return it->second;  // Same file wins.
    unique_key = it->second;
    ++count;
  }
  return count == 1 ? unique_key : "";
}

// ---------------------------------------------------------------------------
// Extraction: one forward pass per file with an explicit scope stack.
// ---------------------------------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass } kind;
  std::string name;  // Namespace component(s) or class last component.
};

namespace extraction {

struct Context {
  Program* prog;
  int fi;
  const std::vector<Token>* toks;
  std::vector<Scope> scopes;

  std::string ScopePrefix() const {
    std::string out;
    for (const Scope& s : scopes) {
      if (s.name.empty()) continue;
      if (!out.empty()) out += "::";
      out += s.name;
    }
    return out;
  }
  ClassInfo* CurrentClass() {
    for (size_t i = scopes.size(); i-- > 0;) {
      if (scopes[i].kind == Scope::kClass) {
        std::string key;
        for (size_t j = 0; j <= i; ++j) {
          if (scopes[j].name.empty()) continue;
          if (!key.empty()) key += "::";
          key += scopes[j].name;
        }
        auto it = prog->classes.find(key);
        return it == prog->classes.end() ? nullptr : &it->second;
      }
    }
    return nullptr;
  }
};

/// Walks back from toks[param_open - 1] to recover the declared name
/// chain (`A::B::name`, `~name`, `operator==`, ...). Returns the chain
/// components (outermost first) and sets `begin` to the chain's first
/// token index.
std::vector<std::string> NameChainBack(const std::vector<Token>& toks,
                                       size_t param_open, size_t* begin) {
  std::vector<std::string> parts;
  if (param_open == 0) return parts;
  size_t k = param_open - 1;
  const Token& last = toks[k];
  std::string name;
  if (last.kind == Tok::kIdent) {
    if ((last.text == "new" || last.text == "delete") && k > 0 &&
        toks[k - 1].text == "operator") {
      *begin = k - 1;
      return {"operator " + last.text};
    }
    name = last.text;
  } else if (last.text == ")" && k >= 2 && toks[k - 1].text == "(" &&
             toks[k - 2].text == "operator") {
    *begin = k - 2;
    return {"operator()"};
  } else if (last.text == "]" && k >= 2 && toks[k - 1].text == "[" &&
             toks[k - 2].text == "operator") {
    *begin = k - 2;
    return {"operator[]"};
  } else if (last.kind == Tok::kPunct) {
    // operator== / operator+ / operator-> etc: puncts back to `operator`.
    size_t k2 = k;
    std::string glued;
    while (k2 > 0 && toks[k2].kind == Tok::kPunct) {
      glued = toks[k2].text + glued;
      --k2;
    }
    if (toks[k2].kind == Tok::kIdent && toks[k2].text == "operator") {
      *begin = k2;
      return {"operator" + glued};
    }
    return parts;
  } else {
    return parts;
  }
  // Simple ident; collect any `Qual::` prefix (skipping template args
  // between a class name and `::`, e.g. `Foo<T>::bar`).
  parts.push_back(name);
  if (k > 0 && toks[k - 1].text == "~") {
    parts.back() = "~" + name;
    --k;
  }
  while (k >= 2 && toks[k - 1].text == "::") {
    size_t q = k - 2;
    if (toks[q].text == ">") {
      int depth = 0;
      while (q > 0) {
        if (toks[q].text == ">" || toks[q].text == ">>") ++depth;
        if (toks[q].text == "<" && --depth == 0) break;
        --q;
      }
      if (q == 0 || toks[q - 1].kind != Tok::kIdent) break;
      --q;
    }
    if (toks[q].kind != Tok::kIdent) break;
    parts.insert(parts.begin(), toks[q].text);
    k = q;
  }
  *begin = k;
  return parts;
}

/// Parses one parameter list group toks[open..close] (inclusive parens)
/// into (name, type core) pairs.
std::vector<std::pair<std::string, std::string>> ParseParams(
    const std::vector<Token>& toks, size_t open, size_t close) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t start = open + 1;
  int depth = 0;
  for (size_t i = open; i <= close && i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    const bool at_end = i == close;
    if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
    if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
    if (t == ">>") depth -= 2;
    if ((t == "," && depth == 1) || (at_end && depth == 0)) {
      // Param tokens: [start, i).
      size_t eq = i;
      for (size_t j = start; j < i; ++j) {
        if (toks[j].text == "=") {
          eq = j;
          break;
        }
      }
      std::string name;
      size_t name_at = eq;
      for (size_t j = eq; j-- > start;) {
        if (toks[j].kind == Tok::kIdent && !IsTypeQualifier(toks[j].text)) {
          name = toks[j].text;
          name_at = j;
          break;
        }
        if (toks[j].text == "]" || toks[j].text == ")") break;
      }
      if (!name.empty() && name_at > start) {
        out.emplace_back(name, TypeCoreOf(toks, start, name_at));
      }
      start = i + 1;
    }
  }
  return out;
}

/// One scope-level statement starting at `i`. Returns the index of the
/// first token after it. Registers classes / functions / variables.
size_t ScopeStatement(Context& ctx, size_t i);

/// Consumes a class/struct definition starting at the keyword.
size_t ParseClass(Context& ctx, size_t i) {
  Program& prog = *ctx.prog;
  const std::vector<Token>& toks = *ctx.toks;
  ++i;  // past class/struct/union
  std::vector<std::string> name_parts;
  while (i < toks.size() && toks[i].kind == Tok::kIdent) {
    if (toks[i].text == "final" || toks[i].text == "alignas") {
      ++i;
      continue;
    }
    name_parts.push_back(toks[i].text);
    ++i;
    i = TrySkipAngles(toks, i);  // Specialization args.
    if (i < toks.size() && toks[i].text == "::") {
      ++i;
      continue;
    }
    break;
  }
  while (i < toks.size() && toks[i].text == "final") ++i;
  std::vector<std::string> bases;
  if (i < toks.size() && toks[i].text == ":") {
    ++i;
    std::string last;
    while (i < toks.size() && toks[i].text != "{" && toks[i].text != ";") {
      const std::string& t = toks[i].text;
      if (toks[i].kind == Tok::kIdent && t != "public" && t != "private" &&
          t != "protected" && t != "virtual" && t != "std") {
        last = t;
      }
      if (t == ",") {
        if (!last.empty()) bases.push_back(last);
        last.clear();
      }
      if (t == "<") {
        i = TrySkipAngles(toks, i);
        continue;
      }
      ++i;
    }
    if (!last.empty()) bases.push_back(last);
  }
  if (i >= toks.size() || toks[i].text != "{" || name_parts.empty()) {
    // Forward declaration or something we don't model: skip statement.
    while (i < toks.size() && toks[i].text != ";") {
      if (toks[i].text == "{") return SkipBalanced(toks, i);
      ++i;
    }
    return i + 1;
  }
  // Register and enter. Qualified definitions (struct A::B { ... })
  // contribute their full path.
  std::string key = ctx.ScopePrefix();
  for (const std::string& part : name_parts) {
    if (!key.empty()) key += "::";
    key += part;
  }
  ClassInfo& info = prog.classes[key];
  if (info.key.empty()) {
    info.key = key;
    info.name = name_parts.back();
    info.file = ctx.fi;
    info.base_names = bases;
    prog.classes_by_name.emplace(info.name, key);
  }
  // Push all path components so nested scopes build the right key.
  size_t pushed = 0;
  for (const std::string& part : name_parts) {
    ctx.scopes.push_back({Scope::kClass, part});
    ++pushed;
  }
  ++i;  // past '{'
  while (i < toks.size() && toks[i].text != "}") {
    i = ScopeStatement(ctx, i);
  }
  for (size_t p = 0; p < pushed; ++p) ctx.scopes.pop_back();
  ++i;  // past '}'
  while (i < toks.size() && toks[i].text != ";") {
    if (toks[i].text == "{") {
      i = SkipBalanced(toks, i);
      continue;
    }
    ++i;  // `} name;` variable-of-anonymous-struct etc.
  }
  return i < toks.size() ? i + 1 : i;
}

size_t ScopeStatement(Context& ctx, size_t i) {
  Program& prog = *ctx.prog;
  const std::vector<Token>& toks = *ctx.toks;
  if (i >= toks.size()) return i;
  const Token& t = toks[i];
  if (t.text == ";") return i + 1;
  if (t.text == "}") return i + 1;  // Caller handles scope pop.
  if (t.kind == Tok::kIdent) {
    if (t.text == "namespace") {
      size_t j = i + 1;
      std::string name;
      while (j < toks.size() && toks[j].kind == Tok::kIdent) {
        if (!name.empty()) name += "::";
        name += toks[j].text;
        ++j;
        if (j < toks.size() && toks[j].text == "::") ++j;
      }
      if (j < toks.size() && toks[j].text == "{") {
        ctx.scopes.push_back({Scope::kNamespace, name});
        ++j;
        while (j < toks.size() && toks[j].text != "}") {
          j = ScopeStatement(ctx, j);
        }
        ctx.scopes.pop_back();
        return j + 1;
      }
      // Namespace alias / using-namespace tail: skip to ';'.
      while (j < toks.size() && toks[j].text != ";") ++j;
      return j + 1;
    }
    if (t.text == "class" || t.text == "struct" || t.text == "union") {
      return ParseClass(ctx, i);
    }
    if (t.text == "enum") {
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{") j = SkipBalanced(toks, j);
      while (j < toks.size() && toks[j].text != ";") ++j;
      return j + 1;
    }
    if (t.text == "using" || t.text == "typedef" ||
        t.text == "static_assert" || t.text == "friend") {
      size_t j = i;
      while (j < toks.size() && toks[j].text != ";") {
        if (toks[j].text == "{") {
          j = SkipBalanced(toks, j);
          continue;
        }
        ++j;
      }
      return j + 1;
    }
    if (t.text == "template") {
      size_t j = TrySkipAngles(toks, i + 1);
      if (j == i + 1) ++j;  // Degenerate; don't loop forever.
      return ScopeStatement(ctx, j);
    }
    if ((t.text == "public" || t.text == "private" || t.text == "protected") &&
        i + 1 < toks.size() && toks[i + 1].text == ":") {
      return i + 2;
    }
  }
  // Generic declaration: scan forward to classify as function def,
  // declaration, or variable.
  size_t j = i;
  int pdepth = 0;
  size_t params_open = 0, params_close = 0;
  bool have_params = false;
  bool saw_eq_top = false;
  bool saw_eq_before_params = false;
  bool hot = false, alloc_ok = false;
  std::vector<std::string> requires_args;
  std::string guard_arg;
  size_t guard_at = 0;  // Token index of KDSEL_GUARDED_BY, if any.
  size_t body_open = 0;
  bool is_func_def = false;
  while (j < toks.size()) {
    const std::string& tt = toks[j].text;
    if (toks[j].kind == Tok::kIdent) {
      if (tt == "KDSEL_HOT") {
        hot = true;
        ++j;
        continue;
      }
      if (tt == "KDSEL_ALLOC_OK" || tt == "KDSEL_REQUIRES" ||
          tt == "KDSEL_GUARDED_BY") {
        size_t open = j + 1;
        if (open < toks.size() && toks[open].text == "(") {
          size_t close = SkipBalanced(toks, open);
          std::string arg;
          for (size_t a = open + 1; a + 1 < close; ++a) arg += toks[a].text;
          if (tt == "KDSEL_ALLOC_OK") alloc_ok = true;
          if (tt == "KDSEL_REQUIRES") requires_args.push_back(arg);
          if (tt == "KDSEL_GUARDED_BY") {
            guard_arg = arg;
            guard_at = j;
          }
          j = close;
          continue;
        }
      }
      ++j;
      continue;
    }
    if (tt == "(") {
      if (pdepth == 0 && !have_params && j > i &&
          (toks[j - 1].kind == Tok::kIdent || toks[j - 1].text == ")" ||
           toks[j - 1].text == "]" ||
           (toks[j - 1].kind == Tok::kPunct && j >= 2 &&
            toks[j - 2].text == "operator"))) {
        params_open = j;
        params_close = SkipBalanced(toks, j) - 1;
        have_params = true;
        saw_eq_before_params = saw_eq_top;
        j = params_close + 1;
        pdepth = 0;
        continue;
      }
      j = SkipBalanced(toks, j);
      continue;
    }
    if (tt == "[") {
      j = SkipBalanced(toks, j);
      continue;
    }
    if (tt == "<" && pdepth == 0) {
      size_t after = TrySkipAngles(toks, j);
      if (after != j) {
        j = after;
        continue;
      }
      ++j;
      continue;
    }
    if (tt == ";" && pdepth == 0) {
      j = j + 1;
      break;
    }
    if (tt == "=" && pdepth == 0) {
      saw_eq_top = true;
      ++j;
      continue;
    }
    if (tt == ":" && pdepth == 0 && have_params && !saw_eq_top) {
      // Constructor initializer list: items until the body '{'.
      ++j;
      while (j < toks.size() && toks[j].text != "{") {
        if (toks[j].text == "(" || toks[j].text == "[") {
          j = SkipBalanced(toks, j);
          continue;
        }
        if (toks[j].text == "<") {
          size_t after = TrySkipAngles(toks, j);
          j = after != j ? after : j + 1;
          continue;
        }
        if (toks[j].text == "{") break;
        if (toks[j].kind == Tok::kIdent && j + 1 < toks.size() &&
            toks[j + 1].text == "{") {
          // member{init} item: skip the braces.
          j = SkipBalanced(toks, j + 1);
          continue;
        }
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{") {
        body_open = j;
        is_func_def = true;
      }
      break;
    }
    if (tt == "{" && pdepth == 0) {
      if (have_params && !saw_eq_top) {
        body_open = j;
        is_func_def = true;
        break;
      }
      // Brace initializer on a variable: skip it, keep scanning.
      j = SkipBalanced(toks, j);
      continue;
    }
    ++j;
  }

  ClassInfo* cls = ctx.CurrentClass();
  if (is_func_def || (have_params && !saw_eq_before_params)) {
    size_t chain_begin = params_open;
    std::vector<std::string> parts =
        NameChainBack(toks, params_open, &chain_begin);
    if (parts.empty() ||
        (chain_begin > i && toks[chain_begin - 1].kind == Tok::kIdent &&
         toks[chain_begin - 1].text == "return")) {
      // Unparseable head; skip the statement (and body if present).
      if (is_func_def) return SkipBalanced(toks, body_open);
      return j;
    }
    const std::string name = parts.back();
    // Resolve the class this function belongs to.
    std::string class_key;
    std::string cls_hint;
    std::string path_hint;
    if (parts.size() > 1) {
      // Qualified: resolve the path's last class component.
      std::string path;
      for (size_t p = 0; p + 1 < parts.size(); ++p) {
        if (!path.empty()) path += "::";
        path += parts[p];
      }
      const std::string last_cls = parts[parts.size() - 2];
      class_key = prog.FindClassKey(last_cls, ctx.fi);
      if (class_key.empty()) {
        // Maybe it's namespace-qualified; try the joined path's tail
        // against every class key suffix.
        for (const auto& [key, info] : prog.classes) {
          if (key.size() >= path.size() &&
              key.compare(key.size() - path.size(), path.size(), path) == 0) {
            class_key = key;
            break;
          }
        }
      }
      if (class_key.empty()) {
        // The class may live in a file not extracted yet (files are
        // processed in sorted order, so foo.cc precedes foo.h).
        // LinkDeferredMethods() retries once the whole tree is in.
        cls_hint = last_cls;
        path_hint = path;
      }
    } else if (cls != nullptr) {
      class_key = cls->key;
    }
    // Return type classification from head tokens [i, chain_begin).
    std::string first_type;
    for (size_t h = i; h < chain_begin; ++h) {
      if (toks[h].kind != Tok::kIdent) continue;
      if (IsTypeQualifier(toks[h].text) || toks[h].text == "std") continue;
      first_type = toks[h].text;
      break;
    }
    const bool is_ctor_dtor =
        first_type.empty() || name[0] == '~' ||
        (!class_key.empty() &&
         name == class_key.substr(class_key.rfind("::") == std::string::npos
                                      ? 0
                                      : class_key.rfind("::") + 2));
    if (!is_ctor_dtor && !name.empty() && name.rfind("operator", 0) != 0) {
      if (first_type == "Status" || first_type == "StatusOr") {
        prog.status_names.insert(name);
      } else if (IsAmbiguousReturn(first_type)) {
        prog.ambiguous_names.insert(name);
      }
    }
    const std::string ret_core = TypeCoreOf(toks, i, chain_begin);
    // Record method metadata on the class (decls and defs alike). A
    // definition with an unresolved qualifier defers to
    // LinkDeferredMethods(); for declarations the qualifier hint is
    // lost, so record as free (same behavior as before).
    const bool defer = class_key.empty() && !cls_hint.empty() && is_func_def;
    if (!class_key.empty()) {
      ClassInfo& ci = prog.classes[class_key];
      ci.method_names.insert(name);
      if (!is_ctor_dtor) ci.method_ret[name] = ret_core;
      if (!requires_args.empty()) ci.method_requires[name] = requires_args;
    } else if (!defer) {
      if (!is_ctor_dtor && !prog.free_ret.count(name)) {
        prog.free_ret[name] = ret_core;
      }
      if (!requires_args.empty()) prog.free_requires[name] = requires_args;
    }
    if (is_func_def) {
      FuncInfo fn;
      fn.file = ctx.fi;
      fn.line = toks[params_open].line;
      fn.class_key = class_key;
      fn.name = name;
      fn.qual = class_key.empty() ? name : class_key + "::" + name;
      fn.hot = hot;
      fn.alloc_ok = alloc_ok;
      fn.ctor_dtor = is_ctor_dtor;
      fn.requires_args = requires_args;
      fn.ret_core = ret_core;
      fn.cls_hint = cls_hint;
      fn.path_hint = path_hint;
      fn.params = ParseParams(toks, params_open, params_close);
      fn.has_body = true;
      fn.body_begin = body_open + 1;
      fn.body_end = SkipBalanced(toks, body_open) - 1;
      const int idx = static_cast<int>(prog.funcs.size());
      prog.funcs.push_back(std::move(fn));
      prog.funcs_by_name.emplace(name, idx);
      prog.funcs_by_qual.emplace(prog.funcs[idx].qual, idx);
      return prog.funcs[idx].body_end + 1;
    }
    return j;
  }

  // Variable declaration (member or global). Find the declared name:
  // last plain identifier before `=` / `;` / `{init}` / annotation.
  size_t name_end = j > 0 ? j - 1 : 0;  // At ';'.
  if (guard_at != 0) name_end = guard_at;
  size_t name_at = 0;
  std::string var_name;
  for (size_t k = name_end; k-- > i;) {
    if (toks[k].text == "=" ) continue;
    if (toks[k].kind == Tok::kIdent && !IsTypeQualifier(toks[k].text)) {
      // Skip initializer tokens: walk back past any top-level init.
      var_name = toks[k].text;
      name_at = k;
      break;
    }
    if (toks[k].text == "]" || toks[k].text == "}" || toks[k].text == ")") {
      // Array extent / brace init / paren init: jump before the group.
      int depth = 0;
      std::string close = toks[k].text;
      std::string open = close == "]" ? "[" : close == "}" ? "{" : "(";
      while (k > i) {
        if (toks[k].text == close) ++depth;
        if (toks[k].text == open && --depth == 0) break;
        --k;
      }
      continue;
    }
  }
  if (guard_at == 0 && !var_name.empty()) {
    // The name may sit before `=` or an init group; if an `=` exists,
    // re-derive: name is the identifier right before the first
    // top-level `=`.
    for (size_t k = i; k < name_end; ++k) {
      if (toks[k].text == "=") {
        for (size_t b = k; b-- > i;) {
          if (toks[b].kind == Tok::kIdent && !IsTypeQualifier(toks[b].text)) {
            var_name = toks[b].text;
            name_at = b;
            break;
          }
          if (toks[b].text == "]") continue;
        }
        break;
      }
      if (toks[k].text == "(" || toks[k].text == "{" || toks[k].text == "[") {
        k = SkipBalanced(toks, k) - 1;
      }
    }
  }
  if (!var_name.empty() && name_at > i) {
    MemberInfo m;
    m.type_core = TypeCoreOf(toks, i, name_at);
    m.guard = guard_arg;
    m.is_mutex = IsMutexType(m.type_core);
    if (cls != nullptr) {
      cls->members.emplace(var_name, m);
    } else {
      GlobalVar g;
      g.type_core = m.type_core;
      g.guard = m.guard;
      g.is_mutex = m.is_mutex;
      g.file = ctx.fi;
      prog.globals.emplace(var_name, g);
    }
  }
  return j;
}

}  // namespace extraction

void Program::ExtractFile(int fi) {
  extraction::Context ctx;
  ctx.prog = this;
  ctx.fi = fi;
  ctx.toks = &files[fi].tokens;
  size_t i = 0;
  while (i < ctx.toks->size()) {
    const size_t next = extraction::ScopeStatement(ctx, i);
    i = next > i ? next : i + 1;  // Guarantee forward progress.
  }
}

void Program::ResolveBases() {
  for (auto& [key, info] : classes) {
    for (const std::string& base : info.base_names) {
      const std::string bkey = FindClassKey(base, info.file);
      if (!bkey.empty() && bkey != key) info.base_keys.push_back(bkey);
    }
  }
}

// ---------------------------------------------------------------------------
// Body analysis: locals, guard scopes, call sites, guarded accesses,
// allocation sites.
// ---------------------------------------------------------------------------

class BodyAnalyzer {
 public:
  BodyAnalyzer(Program& prog, FuncInfo& fn) : prog_(prog), fn_(fn) {
    toks_ = &prog.files[fn.file].tokens;
    for (const auto& [name, type] : fn.params) locals_[name] = type;
    if (!fn.class_key.empty()) cls_ = &prog.classes[fn.class_key];
  }

  void Run() {
    ResolveRequires();
    // Seed held set with KDSEL_REQUIRES mutexes: inside the body they
    // are assumed held.
    for (const std::string& id : fn_.requires_ids) {
      held_.push_back({id, id, -1});
    }
    limit_ = fn_.body_end;
    size_t i = fn_.body_begin;
    int depth = 0;
    while (i < limit_ && i < toks_->size()) {
      i = Statement(i, &depth);
    }
  }

 private:
  struct HeldMutex {
    std::string id;    // Resolved mutex id.
    std::string disp;  // Display name (as written).
    int depth;         // Brace depth where the guard was declared (-1 =
                       // REQUIRES seed, never popped).
  };

  Program& prog_;
  FuncInfo& fn_;
  size_t limit_ = 0;  // Statement-walk bound (body end or lambda end).
  const std::vector<Token>* toks_ = nullptr;
  ClassInfo* cls_ = nullptr;
  std::map<std::string, std::string> locals_;  // name -> type core.
  std::vector<HeldMutex> held_;
  // Identifiers with ok()/has_value()/CHECK evidence (unchecked-value).
  std::set<std::string> checked_;

  const Token& Tk(size_t i) const { return (*toks_)[i]; }
  const std::string& Txt(size_t i) const { return (*toks_)[i].text; }

  /// Mutex id for a member of class `key`: "key::name".
  static std::string MemberMutexId(const std::string& key,
                                   const std::string& name) {
    return key + "::" + name;
  }

  void ResolveRequires() {
    fn_.requires_ids.clear();
    for (const std::string& arg : fn_.requires_args) {
      fn_.requires_ids.push_back(ResolveMutexName(arg));
    }
  }

  /// Resolves a mutex mentioned by name (annotation argument or guard
  /// constructor argument) to a stable id. Resolution order: local,
  /// member of this class (or bases), global. Unknown names become
  /// per-function-local ids so they can't collide across files.
  std::string ResolveMutexName(std::string name) {
    // Strip a leading "this->" or "&".
    if (name.rfind("this->", 0) == 0) name = name.substr(6);
    if (!name.empty() && name[0] == '&') name = name.substr(1);
    if (locals_.count(name)) {
      return fn_.qual + "#" + std::to_string(fn_.line) + "::" + name;
    }
    ClassInfo* c = cls_;
    std::vector<std::string> todo;
    std::set<std::string> seen;
    if (c != nullptr) todo.push_back(c->key);
    while (!todo.empty()) {
      const std::string key = todo.back();
      todo.pop_back();
      if (!seen.insert(key).second) continue;
      auto it = prog_.classes.find(key);
      if (it == prog_.classes.end()) continue;
      if (it->second.members.count(name)) return MemberMutexId(key, name);
      for (const std::string& b : it->second.base_keys) todo.push_back(b);
    }
    if (prog_.globals.count(name)) return "::" + name;
    return fn_.qual + "#" + std::to_string(fn_.line) + "::" + name;
  }

  /// Is `id` currently held?
  bool Held(const std::string& id) const {
    for (const HeldMutex& h : held_) {
      if (h.id == id) return true;
    }
    return false;
  }

  void PopGuards(int depth) {
    while (!held_.empty() && held_.back().depth >= depth) {
      held_.pop_back();
    }
  }

  /// Member lookup through the class hierarchy. Returns the owning
  /// class key via `owner` when found.
  const MemberInfo* FindMember(const std::string& cls_key,
                               const std::string& name,
                               std::string* owner) const {
    std::vector<std::string> todo = {cls_key};
    std::set<std::string> seen;
    while (!todo.empty()) {
      const std::string key = todo.back();
      todo.pop_back();
      if (key.empty() || !seen.insert(key).second) continue;
      auto it = prog_.classes.find(key);
      if (it == prog_.classes.end()) continue;
      auto m = it->second.members.find(name);
      if (m != it->second.members.end()) {
        *owner = key;
        return &m->second;
      }
      for (const std::string& b : it->second.base_keys) todo.push_back(b);
    }
    return nullptr;
  }

  /// Method return-type lookup through the hierarchy.
  std::string FindMethodRet(const std::string& cls_key,
                            const std::string& name) const {
    std::vector<std::string> todo = {cls_key};
    std::set<std::string> seen;
    while (!todo.empty()) {
      const std::string key = todo.back();
      todo.pop_back();
      if (key.empty() || !seen.insert(key).second) continue;
      auto it = prog_.classes.find(key);
      if (it == prog_.classes.end()) continue;
      auto m = it->second.method_ret.find(name);
      if (m != it->second.method_ret.end()) return m->second;
      for (const std::string& b : it->second.base_keys) todo.push_back(b);
    }
    return "";
  }

  /// Records a guarded-member access (or its absence of guard).
  void NoteGuardedAccess(const std::string& owner, const std::string& member,
                         const MemberInfo& info, uint32_t line) {
    if (info.guard.empty()) return;
    // Ctors/dtors of the owning class touch members before the object
    // is shared; exempt.
    if (fn_.ctor_dtor && fn_.class_key == owner) return;
    std::string id;
    std::string disp = info.guard;
    // Guard names a member of the same class, or a global.
    std::string guard_owner;
    const MemberInfo* gm = FindMember(owner, info.guard, &guard_owner);
    if (gm != nullptr) {
      id = MemberMutexId(guard_owner, info.guard);
    } else if (prog_.globals.count(info.guard)) {
      id = "::" + info.guard;
    } else {
      id = ResolveMutexName(info.guard);
    }
    GuardedUse use;
    use.file = fn_.file;
    use.line = line;
    use.member = member;
    use.mutex_id = id;
    use.mutex_disp = disp;
    use.held = Held(id);
    prog_.guarded_uses.push_back(std::move(use));
  }

  /// Records acquiring mutex `id` while everything in held_ is live.
  void NoteAcquire(const std::string& id, const std::string& disp,
                   uint32_t line, int depth) {
    for (const HeldMutex& h : held_) {
      if (h.id == id) continue;
      LockEdge e;
      e.from = h.id;
      e.to = id;
      e.file = fn_.file;
      e.line = line;
      prog_.lock_edges.push_back(std::move(e));
    }
    fn_.acquires.insert(id);
    held_.push_back({id, disp, depth});
  }

  /// Resolves a dotted mutex path (`state.mu`, `impl_->mu` normalized
  /// to components) by walking receiver types: local/member/global ->
  /// class key, then member types for middle components. Unresolvable
  /// paths fall back to a per-function id.
  std::string ResolveDottedMutex(const std::vector<std::string>& comps) {
    if (comps.empty()) return "";
    if (comps.size() == 1) {
      const std::string& name = comps[0];
      const size_t qual = name.rfind("::");
      if (qual != std::string::npos) {
        const std::string ckey =
            prog_.FindClassKey(name.substr(0, qual), fn_.file);
        if (!ckey.empty()) return MemberMutexId(ckey, name.substr(qual + 2));
        return ResolveMutexName(name.substr(qual + 2));
      }
      return ResolveMutexName(name);
    }
    std::string key = ClassKeyOfLocalOrMember(comps[0]);
    for (size_t c = 1; c + 1 < comps.size() && !key.empty(); ++c) {
      std::string owner;
      const MemberInfo* m = FindMember(key, comps[c], &owner);
      key = (m != nullptr && !m->type_core.empty())
                ? ClassKeyOfType(m->type_core)
                : "";
    }
    if (key.empty()) return ResolveMutexName(comps.back());
    return MemberMutexId(key, comps.back());
  }

  /// One statement inside the body starting at `i`; returns the first
  /// index after it. `depth` tracks brace depth for guard scoping.
  size_t Statement(size_t i, int* depth) {
    if (i >= limit_) return limit_;
    const std::string& t = Txt(i);
    if (t == "{") {
      ++*depth;
      return i + 1;
    }
    if (t == "}") {
      PopGuards(*depth);
      --*depth;
      return i + 1;
    }
    if (t == ";") return i + 1;
    if (Tk(i).kind == Tok::kIdent && t == "static") {
      // Static-local statement: one-time init, not steady-state. Skip
      // it whole (including any initializer lambda bodies) so it feeds
      // neither the call graph nor the alloc walk.
      size_t j = i;
      while (j < limit_ && Txt(j) != ";") {
        if (Txt(j) == "{" || Txt(j) == "(" || Txt(j) == "[") {
          j = SkipBalanced(*toks_, j);
          continue;
        }
        ++j;
      }
      return j + 1;
    }
    if (Tk(i).kind == Tok::kIdent &&
        (t == "if" || t == "while" || t == "for" || t == "switch" ||
         t == "catch")) {
      // Process the parenthesized head as expression (it can contain
      // calls, .value(), ok() evidence), then continue after it; the
      // body braces flow through Statement as usual.
      size_t j = i + 1;
      if (j < limit_ && Txt(j) == "(") {
        const size_t close = SkipBalanced(*toks_, j) - 1;
        // A `for (decl; cond; step)` head may declare a guard-like
        // local; treat head as a mini statement run.
        Expression(j + 1, close, /*stmt_start=*/true);
        return close + 1;
      }
      return j;
    }
    if (Tk(i).kind == Tok::kIdent &&
        (t == "return" || t == "co_return" || t == "throw")) {
      const size_t end = StatementEnd(i + 1);
      Expression(i + 1, end, /*stmt_start=*/false);
      return end + 1;
    }
    if (Tk(i).kind == Tok::kIdent &&
        (t == "else" || t == "do" || t == "try" || t == "break" ||
         t == "continue" || t == "default" || t == "goto")) {
      return i + 1;
    }
    if (Tk(i).kind == Tok::kIdent && t == "case") {
      size_t j = i;
      while (j < limit_ && Txt(j) != ":") ++j;
      return j + 1;
    }
    // Try: guard declaration / local declaration / expression.
    const size_t end = StatementEnd(i);
    if (TryGuardDecl(i, end, *depth)) return end + 1;
    TryLocalDecl(i, end);
    Expression(i, end, /*stmt_start=*/true);
    return end + 1;
  }

  /// Finds the end (index of `;`, or the matching close of a trailing
  /// `{`-block for statements like lambdas assigned to autos) of the
  /// statement starting at `i`. Returns index of the terminator token.
  size_t StatementEnd(size_t i) {
    size_t j = i;
    while (j < limit_) {
      const std::string& t = Txt(j);
      if (t == ";") return j;
      if (t == "(" || t == "[") {
        j = SkipBalanced(*toks_, j);
        continue;
      }
      if (t == "{") {
        // Brace init or lambda body: balanced-skip, keep going; the
        // statement still ends at ';'. (Expression() re-walks inside.)
        j = SkipBalanced(*toks_, j);
        continue;
      }
      if (t == "}") return j;  // Malformed/ran off; let caller pop.
      ++j;
    }
    return limit_;
  }

  /// Recognizes `std::lock_guard<std::mutex> g(mu);` (and unique_lock /
  /// scoped_lock / shared_lock, with or without std:: and template
  /// args, paren or brace init).
  bool TryGuardDecl(size_t i, size_t end, int depth) {
    size_t j = i;
    if (j < end && Txt(j) == "std") j += Txt(j + 1) == "::" ? 2 : 1;
    if (j >= end || Tk(j).kind != Tok::kIdent || !IsGuardType(Txt(j))) {
      return false;
    }
    const uint32_t line = Tk(j).line;
    size_t k = TrySkipAngles(*toks_, j + 1);
    if (k == j + 1 && k < end && Txt(k) == "<") return false;
    if (k >= end || Tk(k).kind != Tok::kIdent) return false;
    ++k;  // Past the variable name.
    if (k >= end || (Txt(k) != "(" && Txt(k) != "{")) return false;
    const size_t close = SkipBalanced(*toks_, k) - 1;
    // scoped_lock can take several mutexes; acquire each in order.
    size_t arg_start = k + 1;
    for (size_t a = k + 1; a <= close; ++a) {
      const bool last = a == close;
      if ((Txt(a) == "," && a < close) || last) {
        // Normalize the argument into dotted components ('.'/'->' both
        // split; 'this'/'*'/'&' vanish; '::' glues).
        std::vector<std::string> comps(1, "");
        std::string disp;
        for (size_t b = arg_start; b < a; ++b) {
          const std::string& bt = Txt(b);
          if (bt == "this" || bt == "*" || bt == "&" || bt == "(" ||
              bt == ")") {
            continue;
          }
          if (bt == "." || bt == "->") {
            if (!comps.back().empty()) comps.push_back("");
            if (!disp.empty()) disp += bt;
            continue;
          }
          if (Tk(b).kind == Tok::kIdent || bt == "::") {
            comps.back() += bt;
            disp += bt;
          }
        }
        if (comps.back().empty()) comps.pop_back();
        if (!comps.empty()) {
          NoteAcquire(ResolveDottedMutex(comps), disp, line, depth);
        }
        arg_start = a + 1;
      }
    }
    return true;
  }

  /// Records `Type name = ...;` local declarations so receiver chains
  /// resolve. Handles `auto x = std::make_unique<T>(...)`.
  void TryLocalDecl(size_t i, size_t end) {
    // Statement-start heuristic: IDENT (qualified/templated) IDENT ...
    size_t j = i;
    bool saw_auto = false;
    if (j < end && Tk(j).kind == Tok::kIdent && Txt(j) == "auto") {
      saw_auto = true;
    }
    // Collect the candidate type tokens up to a plausible name.
    size_t k = j;
    size_t last_ident = std::string::npos;
    while (k < end) {
      const std::string& t = Txt(k);
      if (Tk(k).kind == Tok::kIdent) {
        if (StatementKeywords().count(t) && t != "auto" && t != "const" &&
            t != "static" && !IsTypeQualifier(t)) {
          return;  // Not a declaration.
        }
        last_ident = k;
        ++k;
        continue;
      }
      if (t == "::") {
        ++k;
        continue;
      }
      if (t == "<") {
        const size_t after = TrySkipAngles(*toks_, k);
        if (after == k) break;
        k = after;
        continue;
      }
      if (t == "*" || t == "&" || t == "&&") {
        ++k;
        continue;
      }
      break;
    }
    if (last_ident == std::string::npos || last_ident == j) {
      if (!saw_auto) return;
    }
    // Declaration shape: the last ident is the name, and the token
    // after it must begin an initializer or end the statement.
    if (last_ident == std::string::npos) return;
    const std::string name = Txt(last_ident);
    const std::string& after =
        last_ident + 1 <= end ? Txt(last_ident + 1) : Txt(end);
    if (after != "=" && after != ";" && after != "(" && after != "{" &&
        last_ident + 1 != end) {
      return;
    }
    // Need at least two idents (type + name) unless auto.
    std::string type_core;
    if (saw_auto) {
      // `auto x = std::make_unique<T>(...)` / make_shared.
      for (size_t b = last_ident; b < end; ++b) {
        if (Tk(b).kind == Tok::kIdent &&
            (Txt(b) == "make_unique" || Txt(b) == "make_shared")) {
          size_t ang = b + 1;
          if (ang < end && Txt(ang) == "<") {
            for (size_t c = ang + 1; c < end && Txt(c) != ">"; ++c) {
              if (Tk(c).kind == Tok::kIdent && Txt(c) != "std" &&
                  Txt(c) != "const") {
                type_core = Txt(c);
                break;
              }
            }
          }
          break;
        }
      }
      if (type_core.empty()) {
        // `auto x = Foo::Bar(...)` / `auto x = expr` -- try the call's
        // return type below via chain resolution? Keep it simple: give
        // up (receiver stays unresolved).
        return;
      }
    } else {
      if (last_ident == j) return;  // Single ident can't be a decl.
      type_core = TypeCoreOf(*toks_, i, last_ident);
      if (type_core.empty()) return;
    }
    locals_[name] = type_core;
  }

  /// Resolves the class key of a type core name.
  std::string ClassKeyOfType(const std::string& type_core) const {
    if (type_core.empty()) return "";
    return prog_.FindClassKey(type_core, fn_.file);
  }

  /// Expression walk over [i, end): records call sites, guarded member
  /// accesses, allocation constructs, and unchecked-value diagnostics.
  /// Also descends into lambda bodies (they run on this thread unless
  /// handed to ParallelFor -- either way their effects belong to this
  /// function for lock/alloc purposes).
  void Expression(size_t i, size_t end, bool stmt_start) {
    (void)stmt_start;
    size_t j = i;
    while (j < end) {
      const Token& tok = Tk(j);
      const std::string& t = tok.text;
      if (t == "[" && j + 1 < end &&
          (Txt(j + 1) == "]" || Txt(j + 1) == "&" || Txt(j + 1) == "=" ||
           Txt(j + 1) == "this")) {
        // Probable lambda introducer: find the body and recurse.
        const size_t close_br = SkipBalanced(*toks_, j);
        size_t b = close_br;
        if (b < end && Txt(b) == "(") b = SkipBalanced(*toks_, b);
        while (b < end && Txt(b) != "{" && Txt(b) != ";" && Txt(b) != ")") {
          ++b;  // mutable / -> ret / noexcept.
        }
        if (b < end && Txt(b) == "{") {
          const size_t body_close = SkipBalanced(*toks_, b);
          // Full statement walk: lambda bodies can declare their own
          // lock guards. Locks taken inside stay inside (restore the
          // held set); locks held at the definition site carry in.
          const size_t saved_limit = limit_;
          const size_t saved_held = held_.size();
          limit_ = body_close - 1;  // Index of the closing `}`.
          int lambda_depth = 0;
          size_t s = b + 1;
          while (s < limit_) {
            const size_t next = Statement(s, &lambda_depth);
            if (next <= s) break;  // Defensive: never loop in place.
            s = next;
          }
          limit_ = saved_limit;
          while (held_.size() > saved_held) held_.pop_back();
          j = body_close;
          continue;
        }
        j = close_br;
        continue;
      }
      if (tok.kind == Tok::kIdent) {
        j = Chain(j, end);
        continue;
      }
      ++j;
    }
  }

  /// Walks one receiver chain starting at an identifier; returns the
  /// index after the chain. Handles `a.b.c()`, `p->q()`, `Class::f()`,
  /// `f().g()`, `std::move(x).value()`.
  size_t Chain(size_t i, size_t end) {
    size_t j = i;
    // Current receiver class key ("" unknown) and how we got here.
    std::string recv_class;
    std::string last_ident;
    bool have_receiver = false;   // A value whose class is recv_class.
    bool class_qual = false;      // Wrote Class:: (static-style call).
    bool first_link = true;

    // Resolve the chain head.
    {
      const std::string& head = Txt(j);
      if (head == "this") {
        recv_class = fn_.class_key;
        have_receiver = true;
        ++j;
      } else if (head == "std") {
        // std::move(x).value() unwrap / std::to_string etc.
        if (j + 2 < end && Txt(j + 1) == "::" &&
            Tk(j + 2).kind == Tok::kIdent) {
          const std::string fn_name = Txt(j + 2);
          if (fn_name == "move" && j + 3 < end && Txt(j + 3) == "(") {
            const size_t close = SkipBalanced(*toks_, j + 3);
            // Receiver = the moved expression's final ident.
            std::string inner;
            for (size_t b = j + 4; b + 1 < close; ++b) {
              if (Tk(b).kind == Tok::kIdent) inner = Txt(b);
            }
            last_ident = inner;
            recv_class = ClassKeyOfLocalOrMember(inner);
            have_receiver = true;
            j = close;
          } else {
            // std::f(...): note allocating std calls.
            if (j + 3 < end && Txt(j + 3) == "(") {
              NoteStdCall(fn_name, Tk(j + 2).line);
              Expression(j + 4, SkipBalanced(*toks_, j + 3) - 1, false);
              j = SkipBalanced(*toks_, j + 3);
            } else {
              j += 3;
            }
            return j;
          }
        } else {
          return j + 1;
        }
      } else if (StatementKeywords().count(head) && head != "new") {
        return j + 1;
      } else if (head == "new") {
        if (j == i && (i == 0 || Txt(i - 1) != "operator")) {
          fn_.allocs.push_back({Tk(j).line, "new", "new", ""});
        }
        return j + 1;
      } else {
        last_ident = head;
        ++j;
        // Class-qualified chain: A::B::f(...) or Class::member.
        while (j + 1 < end && Txt(j) == "::" &&
               Tk(j + 1).kind == Tok::kIdent) {
          const std::string ckey = prog_.FindClassKey(last_ident, fn_.file);
          if (!ckey.empty()) {
            recv_class = ckey;
            class_qual = true;
            have_receiver = true;
          }
          last_ident = Txt(j + 1);
          j += 2;
        }
        if (!have_receiver) {
          // Plain identifier: local / member / global.
          recv_class = ClassKeyOfLocalOrMember(last_ident);
          have_receiver = true;
          // Guarded member access by bare name (implicit this->).
          CheckBareMemberAccess(last_ident, Tk(i).line);
        }
      }
    }

    // Follow . / -> / () links.
    while (j < end) {
      const std::string& t = Txt(j);
      if (t == "(") {
        // Call of `last_ident` on receiver (or free function).
        const size_t close = SkipBalanced(*toks_, j);
        RecordCall(last_ident, recv_class, class_qual && first_link,
                   Tk(j).line, j + 1, close - 1);
        // Evidence: X.ok() / X.has_value() style handled in RecordCall
        // via receiver text; here mark ident args of CHECK-like macros.
        Expression(j + 1, close - 1, false);
        // Chain continues off the return value.
        recv_class = ReturnClassOf(last_ident, recv_class);
        class_qual = false;
        first_link = false;
        last_ident.clear();
        j = close;
        continue;
      }
      if (t == "." || t == "->") {
        if (j + 1 >= end || Tk(j + 1).kind != Tok::kIdent) return j + 1;
        const std::string next_name = Txt(j + 1);
        const bool is_call = j + 2 < end && Txt(j + 2) == "(";
        if (!is_call) {
          // Member access: guarded-by check on the receiver's class.
          if (!recv_class.empty()) {
            std::string owner;
            const MemberInfo* m = FindMember(recv_class, next_name, &owner);
            if (m != nullptr) {
              NoteGuardedAccess(owner, next_name, *m, Tk(j + 1).line);
              recv_class = m->type_core.empty()
                               ? ""
                               : ClassKeyOfType(m->type_core);
            } else {
              recv_class = "";
            }
          }
        }
        last_ident = next_name;
        first_link = false;
        j += 2;
        continue;
      }
      if (t == "[") {
        j = SkipBalanced(*toks_, j);  // Indexing keeps the receiver?
        // Element type unknown; drop resolution but keep chaining.
        recv_class = "";
        continue;
      }
      break;
    }
    return j;
  }

  /// Class key of the type of a local / member / global identifier.
  std::string ClassKeyOfLocalOrMember(const std::string& name) {
    auto lit = locals_.find(name);
    if (lit != locals_.end()) return ClassKeyOfType(lit->second);
    if (cls_ != nullptr) {
      std::string owner;
      const MemberInfo* m = FindMember(fn_.class_key, name, &owner);
      if (m != nullptr && !m->type_core.empty()) {
        return ClassKeyOfType(m->type_core);
      }
    }
    auto git = prog_.globals.find(name);
    if (git != prog_.globals.end())
      return ClassKeyOfType(git->second.type_core);
    return "";
  }

  /// Bare-name member access (implicit this->) or guarded global:
  /// guarded-by check.
  void CheckBareMemberAccess(const std::string& name, uint32_t line) {
    if (locals_.count(name)) return;  // Shadowed by a local/param.
    const MemberInfo* m = nullptr;
    std::string owner;
    if (!fn_.class_key.empty()) {
      m = FindMember(fn_.class_key, name, &owner);
      if (m != nullptr) NoteGuardedAccess(owner, name, *m, line);
    }
    if (m == nullptr) {
      auto git = prog_.globals.find(name);
      if (git != prog_.globals.end() && !git->second.guard.empty()) {
        NoteGlobalGuardedAccess(name, git->second, line);
      }
    }
  }

  void NoteGlobalGuardedAccess(const std::string& name, const GlobalVar& g,
                               uint32_t line) {
    std::string id;
    if (prog_.globals.count(g.guard)) {
      id = "::" + g.guard;
    } else {
      id = ResolveMutexName(g.guard);
    }
    GuardedUse use;
    use.file = fn_.file;
    use.line = line;
    use.member = name;
    use.mutex_id = id;
    use.mutex_disp = g.guard;
    use.held = Held(id);
    prog_.guarded_uses.push_back(std::move(use));
  }

  /// Return class key of a call, for chaining `f().g()`.
  std::string ReturnClassOf(const std::string& name,
                            const std::string& recv_class) {
    std::string ret;
    if (!recv_class.empty()) {
      ret = FindMethodRet(recv_class, name);
    } else {
      auto it = prog_.free_ret.find(name);
      if (it != prog_.free_ret.end()) ret = it->second;
    }
    return ret.empty() ? "" : ClassKeyOfType(ret);
  }

  /// Allocating std:: calls reachable from hot roots.
  void NoteStdCall(const std::string& name, uint32_t line) {
    if (name == "to_string") {
      fn_.allocs.push_back({line, "format", "std::to_string", ""});
    }
    if (name == "malloc" || name == "calloc" || name == "realloc" ||
        name == "strdup") {
      fn_.allocs.push_back({line, "malloc", name, ""});
    }
    if (name == "make_unique" || name == "make_shared") {
      fn_.allocs.push_back({line, "make", "std::" + name, ""});
    }
  }

  static bool IsGrowthCall(const std::string& name) {
    return name == "push_back" || name == "emplace_back" ||
           name == "emplace" || name == "push_front" || name == "insert" ||
           name == "append";
  }
  static bool IsReserveCall(const std::string& name) {
    return name == "reserve" || name == "resize" || name == "assign" ||
           name == "ResizeDiscard";
  }

  /// Records a call site: call-graph edge fodder, unchecked-value
  /// evidence, CHECK-macro evidence, growth/alloc classification.
  void RecordCall(const std::string& name, const std::string& recv_class,
                  bool via_class_qual, uint32_t line, size_t args_begin,
                  size_t args_end) {
    if (name.empty()) return;
    // Receiver display text: tokens immediately before the name token
    // back to the statement-ish boundary. For growth/reserve and for
    // ok()/value() evidence, we use the chain's prior ident -- cheap
    // but effective: `state.pending.push_back` -> receiver "pending".
    const std::string receiver =
        args_begin >= 3 ? PrevIdentBefore(args_begin - 3) : std::string();
    if (name == "ok" || name == "has_value") {
      if (!receiver.empty()) checked_.insert(receiver);
      return;  // Not a graph-relevant call.
    }
    if (name == "value") {
      // Only the nullary accessor (StatusOr/optional). `value(i)` is an
      // ordinary element accessor. args_end is the `)` index, so empty
      // parens give args_end == args_begin.
      const bool nullary = args_end <= args_begin;
      const bool checked = receiver.empty() || checked_.count(receiver) > 0;
      if (nullary && !checked) {
        fn_.allocs.push_back({line, "unchecked_value", receiver, ""});
      }
      return;
    }
    if (name.rfind("KDSEL_CHECK", 0) == 0 ||
        name.rfind("KDSEL_DCHECK", 0) == 0 ||
        name.rfind("KDSEL_RETURN_NOT_OK", 0) == 0 ||
        name.rfind("ASSERT_", 0) == 0 || name.rfind("EXPECT_", 0) == 0) {
      // Every identifier inside is evidence.
      for (size_t b = args_begin; b <= args_end && b < toks_->size(); ++b) {
        if (Tk(b).kind == Tok::kIdent) checked_.insert(Txt(b));
      }
      return;
    }
    if (IsReserveCall(name)) {
      if (!receiver.empty()) prog_.reserve_proven.insert(receiver);
      return;
    }
    if (IsGrowthCall(name)) {
      fn_.allocs.push_back({line, "growth", name, receiver});
      return;
    }
    if (name == "lock" || name == "unlock" || name == "try_lock") {
      // Bare mutex.lock(): treat as acquire with no scope end (rare in
      // this tree; production code uses guards).
      if (name == "lock" && !receiver.empty()) {
        // Only if the receiver is actually mutex-typed.
        if (IsMutexReceiver(receiver)) {
          NoteAcquire(ResolveMutexName(receiver), receiver, line, 0);
        }
      }
      return;
    }
    CallSite cs;
    cs.line = line;
    cs.name = name;
    cs.recv_class = recv_class;
    cs.via_class_qual = via_class_qual;
    for (const HeldMutex& h : held_) cs.held.push_back(h.id);
    fn_.calls.push_back(std::move(cs));
  }

  bool IsMutexReceiver(const std::string& name) {
    auto lit = locals_.find(name);
    if (lit != locals_.end()) return IsMutexType(lit->second);
    if (!fn_.class_key.empty()) {
      std::string owner;
      const MemberInfo* m = FindMember(fn_.class_key, name, &owner);
      if (m != nullptr) return m->is_mutex;
    }
    auto git = prog_.globals.find(name);
    if (git != prog_.globals.end()) return git->second.is_mutex;
    return false;
  }

  /// The identifier token at or before index `k` (the token preceding
  /// the called name's dot), "" if the immediate context isn't ident.
  std::string PrevIdentBefore(size_t k) {
    // Layout: ... RECEIVER . NAME ( ... -> k points at NAME's index - 1
    // == '.' or '->'; the receiver ident sits one further back.
    if (k >= toks_->size() || k < fn_.body_begin) return "";
    if (Txt(k) != "." && Txt(k) != "->") return "";
    if (k == 0) return "";
    const Token& prev = Tk(k - 1);
    if (prev.kind == Tok::kIdent) return prev.text;
    if (prev.text == ")" || prev.text == "]") {
      // value() on a call result: std::move(x).value() was handled in
      // Chain; other f().value() keeps receiver "" (treated checked --
      // conservative, matches old lookback behavior more closely via
      // the fallback below).
      return "";
    }
    return "";
  }
};

void Program::AnalyzeBodies() {
  for (FuncInfo& fn : funcs) {
    if (!fn.has_body) continue;
    BodyAnalyzer(*this, fn).Run();
  }
}

// ---------------------------------------------------------------------------
// Linking: call resolution and whole-program rule passes.
// ---------------------------------------------------------------------------

/// Second chance for out-of-class definitions whose class was not yet
/// extracted when their file was processed (sorted order puts foo.cc
/// before foo.h). Re-resolves the class, fixes quals, and moves the
/// method metadata off the free-function tables.
void Program::LinkDeferredMethods() {
  bool renamed = false;
  for (FuncInfo& fn : funcs) {
    if (!fn.class_key.empty() || fn.cls_hint.empty()) continue;
    std::string key = FindClassKey(fn.cls_hint, fn.file);
    if (key.empty()) {
      for (const auto& [k, info] : classes) {
        if (k.size() >= fn.path_hint.size() &&
            k.compare(k.size() - fn.path_hint.size(), fn.path_hint.size(),
                      fn.path_hint) == 0) {
          key = k;
          break;
        }
      }
    }
    if (key.empty()) {
      // Truly unresolvable: record the metadata as free-function after
      // all (the extraction pass deferred it).
      if (!fn.ctor_dtor && !free_ret.count(fn.name)) {
        free_ret[fn.name] = fn.ret_core;
      }
      if (!fn.requires_args.empty()) free_requires[fn.name] = fn.requires_args;
      continue;
    }
    fn.class_key = key;
    fn.qual = key + "::" + fn.name;
    renamed = true;
    ClassInfo& ci = classes[key];
    ci.method_names.insert(fn.name);
    if (!fn.ctor_dtor) ci.method_ret[fn.name] = fn.ret_core;
    if (!fn.requires_args.empty()) {
      ci.method_requires[fn.name] = fn.requires_args;
    }
  }
  if (renamed) {
    funcs_by_qual.clear();
    for (size_t i = 0; i < funcs.size(); ++i) {
      funcs_by_qual.emplace(funcs[i].qual, static_cast<int>(i));
    }
  }
}

void Program::ResolveCalls() {
  for (FuncInfo& fn : funcs) {
    for (CallSite& cs : fn.calls) {
      cs.targets.clear();
      if (!cs.recv_class.empty()) {
        // Typed dispatch: the receiver class or any base/derived class
        // defining the method.
        std::vector<std::string> todo = {cs.recv_class};
        std::set<std::string> seen;
        while (!todo.empty()) {
          const std::string key = todo.back();
          todo.pop_back();
          if (!seen.insert(key).second) continue;
          auto fq = funcs_by_qual.find(key + "::" + cs.name);
          if (fq != funcs_by_qual.end()) cs.targets.push_back(fq->second);
          auto it = classes.find(key);
          if (it != classes.end()) {
            for (const std::string& b : it->second.base_keys) {
              todo.push_back(b);
            }
          }
        }
        if (!cs.targets.empty()) continue;
      }
      // Free function by exact name; if that fails, fall back to a
      // unique same-name function anywhere (covers methods called on
      // receivers the resolver lost). Ambiguous names drop the edge:
      // a wrong edge is worse than a missing one for these rules.
      auto range = funcs_by_name.equal_range(cs.name);
      int unique = -1;
      int count = 0;
      for (auto it = range.first; it != range.second; ++it) {
        unique = it->second;
        ++count;
      }
      if (count == 1) {
        const FuncInfo& target = funcs[unique];
        if (cs.recv_class.empty() || target.class_key == cs.recv_class ||
            !target.class_key.empty()) {
          cs.targets.push_back(unique);
        }
      }
    }
  }
}

/// Fixpoint: acquires_eventually = acquires U union(callee.acquires_eventually)
void Program::ComputeAcquiresFixpoint() {
  for (FuncInfo& fn : funcs) fn.acquires_eventually = fn.acquires;
  bool changed = true;
  while (changed) {
    changed = false;
    for (FuncInfo& fn : funcs) {
      for (const CallSite& cs : fn.calls) {
        for (int t : cs.targets) {
          for (const std::string& id : funcs[t].acquires_eventually) {
            if (fn.acquires_eventually.insert(id).second) changed = true;
          }
        }
      }
    }
  }
}

/// Builds transitive lock edges (held at a call -> acquired inside any
/// callee, transitively), then finds strongly connected components of
/// the lock graph; every edge inside a multi-node SCC is part of a
/// potential deadlock cycle.
void BuildLockDiagnostics(Program& prog, std::vector<Diagnostic>* out) {
  std::vector<LockEdge> edges = prog.lock_edges;
  for (const FuncInfo& fn : prog.funcs) {
    for (const CallSite& cs : fn.calls) {
      if (cs.held.empty()) continue;
      for (int t : cs.targets) {
        for (const std::string& to : prog.funcs[t].acquires_eventually) {
          for (const std::string& from : cs.held) {
            if (from == to) continue;
            LockEdge e;
            e.from = from;
            e.to = to;
            e.file = fn.file;
            e.line = cs.line;
            e.via = cs.name;
            edges.push_back(std::move(e));
          }
        }
      }
    }
  }
  // Node table.
  std::map<std::string, int> node_of;
  std::vector<std::string> nodes;
  auto intern = [&](const std::string& id) {
    auto [it, fresh] = node_of.emplace(id, static_cast<int>(nodes.size()));
    if (fresh) nodes.push_back(id);
    return it->second;
  };
  std::vector<std::vector<int>> adj;
  for (const LockEdge& e : edges) {
    const int a = intern(e.from);
    const int b = intern(e.to);
    if (static_cast<size_t>(std::max(a, b)) >= adj.size()) {
      adj.resize(std::max(a, b) + 1);
    }
    adj[a].push_back(b);
  }
  adj.resize(nodes.size());
  // Tarjan SCC (iterative).
  const int n = static_cast<int>(nodes.size());
  std::vector<int> index(n, -1), low(n, 0), comp(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int next_index = 0, next_comp = 0;
  struct Frame {
    int v;
    size_t child;
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames = {{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < adj[f.v].size()) {
        const int w = adj[f.v][f.child++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = next_comp;
            if (w == f.v) break;
          }
          ++next_comp;
        }
        const int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  // Component sizes.
  std::vector<int> comp_size(next_comp, 0);
  for (int v = 0; v < n; ++v) ++comp_size[comp[v]];
  // An edge is cyclic if both ends are in the same SCC of size >= 2
  // (self-loops were never emitted).
  auto short_name = [](const std::string& id) {
    const size_t at = id.rfind("::");
    std::string tail = at == std::string::npos ? id : id.substr(at + 2);
    // Re-attach the class's last component for readability when the id
    // is Class::member.
    if (at != std::string::npos && at > 0) {
      const std::string head = id.substr(0, at);
      const size_t at2 = head.rfind("::");
      const std::string cls =
          at2 == std::string::npos ? head : head.substr(at2 + 2);
      if (!cls.empty() && cls.find('#') == std::string::npos) {
        return cls + "::" + tail;
      }
    }
    return tail;
  };
  // Dedupe per (from, to): keep the lexicographically first location.
  std::map<std::pair<std::string, std::string>, const LockEdge*> best;
  for (const LockEdge& e : edges) {
    const int a = node_of[e.from], b = node_of[e.to];
    if (comp[a] != comp[b] || comp_size[comp[a]] < 2) continue;
    auto key = std::make_pair(e.from, e.to);
    auto it = best.find(key);
    if (it == best.end()) {
      best.emplace(key, &e);
      continue;
    }
    const LockEdge& old = *it->second;
    const auto loc = std::make_pair(prog.files[e.file].display_path, e.line);
    const auto old_loc =
        std::make_pair(prog.files[old.file].display_path, old.line);
    if (loc < old_loc) it->second = &e;
  }
  for (const auto& [key, e] : best) {
    // Find the opposite edge's location for the message.
    std::string opposite = "elsewhere";
    auto rev = best.find(std::make_pair(key.second, key.first));
    if (rev != best.end()) {
      opposite = prog.files[rev->second->file].display_path + ":" +
                 std::to_string(rev->second->line);
    }
    Diagnostic d;
    d.file = prog.files[e->file].display_path;
    d.line = e->line;
    d.rule = "lock-order-inversion";
    if (e->via.empty()) {
      d.message = "mutex '" + short_name(key.second) +
                  "' is acquired while '" + short_name(key.first) +
                  "' is held, but the opposite order exists at " + opposite +
                  "; establish a single global lock order";
    } else {
      d.message = "mutex '" + short_name(key.second) +
                  "' can be acquired (via call to '" + e->via +
                  "') while '" + short_name(key.first) +
                  "' is held, but the opposite order exists at " + opposite +
                  "; establish a single global lock order";
    }
    out->push_back(std::move(d));
  }
}

void BuildGuardedByDiagnostics(Program& prog, std::vector<Diagnostic>* out) {
  for (const GuardedUse& use : prog.guarded_uses) {
    if (use.held) continue;
    Diagnostic d;
    d.file = prog.files[use.file].display_path;
    d.line = use.line;
    d.rule = "guarded-by";
    d.message = "member '" + use.member + "' is guarded by '" +
                use.mutex_disp +
                "' (KDSEL_GUARDED_BY) but accessed without it held; take "
                "the lock or annotate the function with KDSEL_REQUIRES(" +
                use.mutex_disp + ")";
    out->push_back(std::move(d));
  }
  // KDSEL_REQUIRES call-site checks: calling a requires-annotated
  // function without the mutex held.
  for (const FuncInfo& fn : prog.funcs) {
    for (const CallSite& cs : fn.calls) {
      for (int t : cs.targets) {
        const FuncInfo& target = prog.funcs[t];
        for (size_t r = 0; r < target.requires_ids.size(); ++r) {
          const std::string& id = target.requires_ids[r];
          bool held = false;
          for (const std::string& h : cs.held) {
            if (h == id) held = true;
          }
          // A REQUIRES function calling a same-requirement helper is
          // covered because fn.requires_ids seed the held set.
          if (held) continue;
          Diagnostic d;
          d.file = prog.files[fn.file].display_path;
          d.line = cs.line;
          d.rule = "guarded-by";
          d.message = "call to '" + target.name + "' requires '" +
                      target.requires_args[r] +
                      "' held (KDSEL_REQUIRES) but it is not; take the "
                      "lock before calling";
          out->push_back(std::move(d));
        }
      }
    }
  }
}

void BuildHotPathDiagnostics(Program& prog, std::vector<Diagnostic>* out) {
  // BFS from every KDSEL_HOT root; KDSEL_ALLOC_OK functions are trusted
  // boundaries the walk does not enter.
  std::vector<int> roots;
  for (size_t i = 0; i < prog.funcs.size(); ++i) {
    if (prog.funcs[i].hot && prog.funcs[i].has_body) {
      roots.push_back(static_cast<int>(i));
    }
  }
  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    return prog.funcs[a].qual < prog.funcs[b].qual;
  });
  for (int root : roots) {
    // parent chain for display: func index -> (parent, via call name).
    std::map<int, int> parent;
    std::vector<int> queue = {root};
    parent[root] = -1;
    size_t head = 0;
    while (head < queue.size()) {
      const int v = queue[head++];
      const FuncInfo& fn = prog.funcs[v];
      for (const CallSite& cs : fn.calls) {
        for (int t : cs.targets) {
          const FuncInfo& target = prog.funcs[t];
          if (target.alloc_ok || !target.has_body) continue;
          if (parent.count(t)) continue;
          parent[t] = v;
          queue.push_back(t);
        }
      }
    }
    auto chain_of = [&](int v) {
      std::vector<std::string> names;
      for (int cur = v; cur != -1; cur = parent[cur]) {
        names.push_back(prog.funcs[cur].name);
      }
      std::string chain;
      for (size_t i = names.size(); i-- > 0;) {
        if (!chain.empty()) chain += " -> ";
        chain += names[i];
      }
      return chain;
    };
    for (const int v : queue) {
      const FuncInfo& fn = prog.funcs[v];
      if (fn.alloc_ok) continue;
      for (const AllocSite& a : fn.allocs) {
        if (a.kind == "unchecked_value") continue;
        Diagnostic d;
        d.file = prog.files[fn.file].display_path;
        d.line = a.line;
        d.rule = "alloc-in-hot-path";
        const std::string chain = chain_of(v);
        if (a.kind == "growth") {
          if (prog.reserve_proven.count(a.receiver)) continue;
          d.message = "'" + a.what + "' on '" + a.receiver +
                      "' allocates (no reserve() for '" + a.receiver +
                      "' anywhere in the tree) on the hot path '" + chain +
                      "'; reserve in setup or mark a KDSEL_ALLOC_OK "
                      "boundary";
        } else if (a.kind == "format") {
          d.message = "'" + a.what + "' allocates on the hot path '" + chain +
                      "'; hoist the formatting off the steady-state path or "
                      "mark a KDSEL_ALLOC_OK boundary";
        } else {
          d.message = "raw '" + a.what + "' allocates on the hot path '" +
                      chain +
                      "'; pool it or mark a KDSEL_ALLOC_OK boundary";
        }
        out->push_back(std::move(d));
      }
    }
  }
  // One allocation can be reachable from several roots; dedupe by
  // (file, line, message-prefix-free identity) keeping the first root's
  // chain -- roots are walked in sorted order so this is stable.
  std::sort(out->begin(), out->end());
  std::set<std::pair<std::string, size_t>> seen;
  std::vector<Diagnostic> unique;
  for (Diagnostic& d : *out) {
    if (d.rule == "alloc-in-hot-path") {
      if (!seen.insert({d.file, d.line}).second) continue;
    }
    unique.push_back(std::move(d));
  }
  out->swap(unique);
}

/// unchecked-value diagnostics recorded during body analysis.
void BuildUncheckedValueDiagnostics(Program& prog,
                                    std::vector<Diagnostic>* out) {
  for (const FuncInfo& fn : prog.funcs) {
    for (const AllocSite& a : fn.allocs) {
      if (a.kind != "unchecked_value") continue;
      Diagnostic d;
      d.file = prog.files[fn.file].display_path;
      d.line = a.line;
      d.rule = "unchecked-value";
      d.message =
          ".value() without a nearby ok()/has_value() check aborts on "
          "error; check first or propagate with KDSEL_ASSIGN_OR_RETURN";
      out->push_back(std::move(d));
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file token passes (the nine original rules, regex-free).
// ---------------------------------------------------------------------------

bool IsParseName(const std::string& t) {
  static const std::set<std::string> names = {
      "stoi",  "stol",    "stoll",   "stoul",  "stoull", "stof",
      "stod",  "stold",   "atoi",    "atol",   "atoll",  "atof",
      "strtol", "strtoll", "strtoul", "strtoull", "strtof", "strtod"};
  return names.count(t) > 0;
}

/// Statement-start heuristic over tokens: the previous token ends a
/// statement or opens a block.
bool AtStatementStart(const std::vector<Token>& toks, size_t i) {
  if (i == 0) return true;
  const std::string& p = toks[i - 1].text;
  return p == ";" || p == "{" || p == "}" || p == ":";
}

void RunFilePasses(Program& prog, int fi, std::vector<Diagnostic>* out) {
  const SourceFile& file = prog.files[fi];
  const std::vector<Token>& toks = file.tokens;
  auto report = [&](uint32_t line, const char* rule, std::string message) {
    out->push_back(
        {file.display_path, line, rule, std::move(message)});
  };

  // raw-simd: intrinsic headers (preprocessor lines were captured on
  // the side; macro-heavy token streams never see them).
  if (!file.in_kernels) {
    for (const auto& [line, pp] : file.pp_lines) {
      if (pp.find("include") != std::string::npos &&
          pp.find("intrin.h") != std::string::npos) {
        report(line, "raw-simd",
               "raw SIMD outside src/nn/kernels/ bypasses runtime dispatch "
               "and the scalar fallback; add a kernel to nn::kernels and "
               "call it through Dispatch()");
      }
    }
  }

  // Function-body token ranges for this file (unchecked-value fallback
  // only applies outside them; inside, BodyAnalyzer's receiver-matched
  // evidence is strictly better).
  std::vector<std::pair<size_t, size_t>> body_ranges;
  for (const FuncInfo& fn : prog.funcs) {
    if (fn.file == fi && fn.has_body) {
      body_ranges.emplace_back(fn.body_begin, fn.body_end);
    }
  }
  auto in_body = [&](size_t i) {
    for (const auto& [b, e] : body_ranges) {
      if (i >= b && i < e) return true;
    }
    return false;
  };

  // Guard liveness for lock-across-score: (brace depth) per live guard.
  int depth = 0;
  std::vector<int> live_guards;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    const std::string& t = tok.text;
    if (t == "{") {
      ++depth;
      continue;
    }
    if (t == "}") {
      while (!live_guards.empty() && live_guards.back() >= depth) {
        live_guards.pop_back();
      }
      --depth;
      continue;
    }
    if (tok.kind != Tok::kIdent) continue;
    const bool next_is_call = i + 1 < toks.size() && toks[i + 1].text == "(";
    const std::string prev = i > 0 ? toks[i - 1].text : "";
    // An adjacent non-keyword identifier means a declaration head
    // (`long strtol(`), never a call.
    const bool prev_is_decl_head = i > 0 && toks[i - 1].kind == Tok::kIdent &&
                                   StatementKeywords().count(prev) == 0;

    if (IsGuardType(t) && next_is_call == false) {
      // `std::lock_guard<...> name(...)` -- a declaration, not a call.
      // Record liveness at the current depth.
      size_t j = TrySkipAngles(toks, i + 1);
      if (j < toks.size() && toks[j].kind == Tok::kIdent) {
        live_guards.push_back(depth);
      }
      continue;
    }

    if (t == "Score" && next_is_call && !live_guards.empty() &&
        !prev_is_decl_head) {
      report(tok.line, "lock-across-score",
             "detector Score() runs while a mutex guard is live; scoring is "
             "slow and must happen off-lock (clone or snapshot instead)");
      continue;
    }

    if (t == "new" && prev != "operator") {
      // Old matcher required whitespace after `new`, which skipped
      // placement/operator forms; token equivalent: skip `new (`.
      if (!next_is_call) {
        report(tok.line, "naked-new",
               "raw 'new' allocation; use std::make_unique/std::make_shared "
               "or a container");
      }
      continue;
    }
    if ((t == "malloc" || t == "calloc" || t == "realloc" || t == "strdup") &&
        next_is_call && !prev_is_decl_head && prev != "." &&
        prev != "->") {
      report(tok.line, "naked-new",
             "'" + t +
                 "' allocation; use std::make_unique/std::make_shared or a "
                 "container");
      continue;
    }

    if (!file.in_common && IsParseName(t) && next_is_call &&
        !prev_is_decl_head && prev != "." && prev != "->") {
      report(tok.line, "raw-parse",
             "'" + t +
                 "' outside common/: it throws or silently wraps; use "
                 "kdsel::ParseUint64 (stringutil.h)");
      continue;
    }

    if ((t == "rand" || t == "srand") && next_is_call &&
        !prev_is_decl_head && prev != "." && prev != "->") {
      report(tok.line, "nonreproducible-random",
             "unseeded/wall-clock randomness breaks bit-for-bit "
             "reproducibility; use kdsel::Rng with an explicit seed");
      continue;
    }
    if (t == "random_device") {
      report(tok.line, "nonreproducible-random",
             "unseeded/wall-clock randomness breaks bit-for-bit "
             "reproducibility; use kdsel::Rng with an explicit seed");
      continue;
    }
    if (t == "time" && next_is_call && !prev_is_decl_head &&
        prev != "." && prev != "->" && i + 3 < toks.size() &&
        (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL" ||
         toks[i + 2].text == "0") &&
        toks[i + 3].text == ")") {
      report(tok.line, "nonreproducible-random",
             "unseeded/wall-clock randomness breaks bit-for-bit "
             "reproducibility; use kdsel::Rng with an explicit seed");
      continue;
    }

    if (!file.in_thread_zone &&
        (t == "thread" || t == "jthread" || t == "async") && prev == "::" &&
        i >= 2 && toks[i - 2].text == "std") {
      report(tok.line, "raw-thread",
             "'std::" + std::string(t == "async" ? "thread" : t) +
                 "' outside src/common/, src/serve/ and src/net/ bypasses "
                 "the shared pool; use kdsel::ParallelFor or ThreadPool "
                 "(common/parallel.h)");
      continue;
    }

    if (!file.in_net && next_is_call && !prev_is_decl_head && prev != "." &&
        prev != "->" && prev != "::" &&
        (t == "socket" || t == "accept" || t == "accept4" ||
         t == "epoll_create" || t == "epoll_create1" || t == "epoll_ctl" ||
         t == "epoll_wait" || t == "epoll_pwait")) {
      report(tok.line, "raw-socket",
             "'" + t +
                 "' outside src/net/ bypasses the event loop's nonblocking "
                 "setup, backpressure and shedding; serve through "
                 "net::NetServer (net/server.h)");
      continue;
    }

    if (!file.in_kernels) {
      if (t.rfind("_mm", 0) == 0 && next_is_call) {
        report(tok.line, "raw-simd",
               "raw SIMD outside src/nn/kernels/ bypasses runtime dispatch "
               "and the scalar fallback; add a kernel to nn::kernels and "
               "call it through Dispatch()");
        continue;
      }
      if (t.rfind("__m128", 0) == 0 || t.rfind("__m256", 0) == 0 ||
          t.rfind("__m512", 0) == 0) {
        report(tok.line, "raw-simd",
               "raw SIMD outside src/nn/kernels/ bypasses runtime dispatch "
               "and the scalar fallback; add a kernel to nn::kernels and "
               "call it through Dispatch()");
        continue;
      }
    }

    if (!file.in_timing_zone &&
        (t == "steady_clock" || t == "high_resolution_clock")) {
      report(tok.line, "raw-timing",
             "'" + t +
                 "' outside src/obs/, src/common/ and bench/; time through "
                 "obs::Clock/NowNs (obs/clock.h) or record a span/histogram "
                 "so all durations share one timebase");
      continue;
    }
    // The C-level bypasses of the same rule: request timestamping in
    // src/net/ and src/serve/ must flow through obs::NowNs so every
    // stage stamp shares the steady timebase (mixing in CLOCK_REALTIME
    // or wall-clock gettimeofday silently corrupts stage deltas across
    // NTP slews).
    if (!file.in_timing_zone && next_is_call && !prev_is_decl_head &&
        prev != "." && prev != "->" && prev != "::" &&
        (t == "clock_gettime" || t == "gettimeofday" ||
         t == "timespec_get")) {
      report(tok.line, "raw-timing",
             "'" + t +
                 "' outside src/obs/, src/common/ and bench/; stamp through "
                 "obs::NowNs (obs/clock.h) so request stage timings share "
                 "one steady timebase");
      continue;
    }

    // discarded-status: bare-statement call of a known Status-returning
    // function. Adjacent-identifier contexts (declarations, macro-
    // wrapped calls, assignments) never sit at a statement start.
    if (next_is_call && AtStatementStart(toks, i) &&
        prog.status_names.count(t) > 0 && prog.ambiguous_names.count(t) == 0) {
      // Qualified calls `ns::F(...)`: the name token is preceded by
      // `::`, so the statement-start check already excluded them; the
      // qualifier head would have been flagged instead -- approximate
      // by also flagging `A::F()` heads whose final name qualifies.
      report(tok.line, "discarded-status",
             "result of Status-returning call '" + t +
                 "' is discarded; check it, propagate it with "
                 "KDSEL_RETURN_NOT_OK, or assert on it");
      continue;
    }
    if (next_is_call && prev == "::" && i >= 2 &&
        AtStatementStart(toks, i - 2) && toks[i - 2].kind == Tok::kIdent &&
        prog.status_names.count(t) > 0 && prog.ambiguous_names.count(t) == 0) {
      report(tok.line, "discarded-status",
             "result of Status-returning call '" + t +
                 "' is discarded; check it, propagate it with "
                 "KDSEL_RETURN_NOT_OK, or assert on it");
      continue;
    }

    // unchecked-value fallback outside extracted function bodies: the
    // original 8-line lookback over ok()/has_value() evidence.
    if (t == "value" && next_is_call && (prev == "." || prev == "->") &&
        i + 2 < toks.size() && toks[i + 2].text == ")" && !in_body(i)) {
      bool checked = false;
      for (size_t b = i; b-- > 0;) {
        if (toks[b].line + 8 < tok.line) break;
        if (toks[b].kind == Tok::kIdent &&
            (toks[b].text == "ok" || toks[b].text == "has_value") &&
            b + 1 < toks.size() && toks[b + 1].text == "(") {
          checked = true;
          break;
        }
      }
      if (!checked) {
        report(tok.line, "unchecked-value",
               ".value() without a nearby ok()/has_value() check aborts on "
               "error; check first or propagate with "
               "KDSEL_ASSIGN_OR_RETURN");
      }
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PrintText(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& d : diagnostics) {
    std::printf("%s:%zu: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
}

void PrintJson(const std::vector<Diagnostic>& diagnostics) {
  std::printf("[");
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    std::printf(
        "%s\n  {\"file\": \"%s\", \"line\": %zu, \"rule\": \"%s\", "
        "\"message\": \"%s\"}",
        i == 0 ? "" : ",", JsonEscape(d.file).c_str(), d.line,
        JsonEscape(d.rule).c_str(), JsonEscape(d.message).c_str());
  }
  std::printf("%s]\n", diagnostics.empty() ? "" : "\n");
}

void PrintSarif(const std::vector<Diagnostic>& diagnostics) {
  std::printf(
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"kdsel-lint\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/kdsel/tools/kdsel_lint\",\n"
      "          \"rules\": [\n");
  size_t ri = 0;
  for (const RuleInfo& rule : kRules) {
    std::printf(
        "            {\"id\": \"%s\", \"shortDescription\": {\"text\": "
        "\"%s\"}}%s\n",
        rule.name, JsonEscape(rule.summary).c_str(),
        ++ri < sizeof(kRules) / sizeof(kRules[0]) ? "," : "");
  }
  std::printf(
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [%s", diagnostics.empty() ? "" : "\n");
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    std::printf(
        "        {\n"
        "          \"ruleId\": \"%s\",\n"
        "          \"level\": \"error\",\n"
        "          \"message\": {\"text\": \"%s\"},\n"
        "          \"locations\": [\n"
        "            {\n"
        "              \"physicalLocation\": {\n"
        "                \"artifactLocation\": {\"uri\": \"%s\"},\n"
        "                \"region\": {\"startLine\": %zu}\n"
        "              }\n"
        "            }\n"
        "          ]\n"
        "        }%s\n",
        JsonEscape(d.rule).c_str(), JsonEscape(d.message).c_str(),
        JsonEscape(d.file).c_str(), d.line,
        i + 1 < diagnostics.size() ? "," : "");
  }
  std::printf(
      "%s]\n"
      "    }\n"
      "  ]\n"
      "}\n",
      diagnostics.empty() ? "" : "      ");
}

// ---------------------------------------------------------------------------
// File collection and driver
// ---------------------------------------------------------------------------

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

std::string DisplayPath(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  std::string display = (!ec && !rel.empty() &&
                         rel.native().rfind("..", 0) == std::string::npos)
                            ? rel.generic_string()
                            : path.generic_string();
  return display;
}

void CollectFromDirectory(const fs::path& dir, bool skip_fixtures,
                          std::vector<fs::path>* out) {
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec), end;
  while (!ec && it != end) {
    const fs::directory_entry entry = *it;
    if (entry.is_directory(ec)) {
      const std::string name = entry.path().filename().string();
      if (name == ".git" || name.rfind("build", 0) == 0 ||
          (skip_fixtures && name == "lint_fixtures")) {
        it.disable_recursion_pending();
      }
    } else if (entry.is_regular_file(ec) && HasSourceExtension(entry.path())) {
      out->push_back(entry.path());
    }
    it.increment(ec);
  }
}

void SetZones(SourceFile& file) {
  const std::string& p = file.display_path;
  auto contains = [&](const char* needle) {
    return p.find(needle) != std::string::npos;
  };
  file.in_common = contains("src/common/") || contains("src\\common\\");
  file.in_net = contains("src/net/") || contains("src\\net\\");
  file.in_thread_zone = file.in_common || file.in_net ||
                        contains("src/serve/") || contains("src\\serve\\");
  file.in_kernels =
      contains("src/nn/kernels/") || contains("src\\nn\\kernels\\");
  file.in_timing_zone = file.in_common || contains("src/obs/") ||
                        contains("src\\obs\\") || p.rfind("bench/", 0) == 0 ||
                        contains("/bench/");
}

int Usage(FILE* stream) {
  std::fprintf(
      stream,
      "usage: kdsel_lint [--root DIR] [--self-check] [--list-rules]\n"
      "                  [--format text|json|sarif] [--budget-ms N]\n"
      "                  [paths...]\n"
      "\n"
      "Lints kdsel sources for repo-specific rules. With no paths, scans\n"
      "src/, tools/, bench/ and tests/ under --root (skipping\n"
      "tests/lint_fixtures/). Exit: 0 clean, 1 findings, 2 usage error.\n");
  return stream == stderr ? 2 : 0;
}

bool InTestsDir(const std::string& display) {
  return display.rfind("tests/", 0) == 0 ||
         display.find("/tests/") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start_time = std::chrono::system_clock::now();
  fs::path root = fs::current_path();
  bool self_check = false;
  std::string format = "text";
  long budget_ms = -1;
  std::vector<std::string> paths;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--help" || arg == "-h") return Usage(stdout);
    if (arg == "--list-rules") {
      for (const RuleInfo& rule : kRules) {
        std::printf("%s: %s\n", rule.name, rule.summary);
      }
      return 0;
    }
    if (arg == "--self-check") {
      self_check = true;
      continue;
    }
    if (arg == "--root") {
      if (a + 1 >= argc) return Usage(stderr);
      root = argv[++a];
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format") {
      if (a + 1 >= argc) return Usage(stderr);
      format = argv[++a];
    } else if (arg == "--budget-ms") {
      if (a + 1 >= argc) return Usage(stderr);
      budget_ms = 0;
      for (const char* c = argv[++a]; *c >= '0' && *c <= '9'; ++c) {
        budget_ms = budget_ms * 10 + (*c - '0');
      }
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(stderr);
    } else {
      paths.push_back(arg);
      continue;
    }
    if (format != "text" && format != "json" && format != "sarif") {
      return Usage(stderr);
    }
  }

  // Collect files.
  std::vector<fs::path> inputs;
  if (paths.empty()) {
    for (const char* sub : {"src", "tools", "bench", "tests"}) {
      const fs::path dir = root / sub;
      std::error_code ec;
      if (fs::is_directory(dir, ec)) {
        CollectFromDirectory(dir, /*skip_fixtures=*/true, &inputs);
      }
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "kdsel-lint: no sources under %s (wrong --root?)\n",
                   root.string().c_str());
      return 2;
    }
  } else {
    for (const std::string& p : paths) {
      const fs::path path(p);
      std::error_code ec;
      if (fs::is_directory(path, ec)) {
        CollectFromDirectory(path, /*skip_fixtures=*/false, &inputs);
      } else if (fs::is_regular_file(path, ec)) {
        inputs.push_back(path);
      } else {
        std::fprintf(stderr, "kdsel-lint: no such file: %s\n", p.c_str());
        return 2;
      }
    }
  }

  Program prog;
  prog.files.reserve(inputs.size());
  for (const fs::path& path : inputs) {
    SourceFile file;
    file.path = path;
    file.display_path = DisplayPath(path, root);
    prog.files.push_back(std::move(file));
  }
  std::sort(prog.files.begin(), prog.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.display_path < b.display_path;
            });
  prog.files.erase(
      std::unique(prog.files.begin(), prog.files.end(),
                  [](const SourceFile& a, const SourceFile& b) {
                    return a.display_path == b.display_path;
                  }),
      prog.files.end());

  for (SourceFile& file : prog.files) {
    std::ifstream in(file.path, std::ios::binary);
    if (!in.good()) {
      std::fprintf(stderr, "kdsel-lint: cannot read %s\n",
                   file.path.string().c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    SetZones(file);
    Tokenize(text, file);
  }

  // Whole-program analysis.
  for (size_t fi = 0; fi < prog.files.size(); ++fi) {
    prog.ExtractFile(static_cast<int>(fi));
  }
  prog.ResolveBases();
  prog.LinkDeferredMethods();
  prog.AnalyzeBodies();
  prog.ResolveCalls();
  prog.ComputeAcquiresFixpoint();

  std::vector<Diagnostic> diagnostics;
  for (size_t fi = 0; fi < prog.files.size(); ++fi) {
    RunFilePasses(prog, static_cast<int>(fi), &diagnostics);
  }
  BuildUncheckedValueDiagnostics(prog, &diagnostics);
  BuildLockDiagnostics(prog, &diagnostics);
  BuildGuardedByDiagnostics(prog, &diagnostics);
  BuildHotPathDiagnostics(prog, &diagnostics);

  // Suppressions; in self-check mode, suppressing the load-bearing
  // rules outside tests/ is itself a finding.
  std::map<std::string, const SourceFile*> by_display;
  for (const SourceFile& file : prog.files) {
    by_display[file.display_path] = &file;
  }
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : diagnostics) {
    auto it = by_display.find(d.file);
    if (it != by_display.end() &&
        Suppressed(*it->second, d.line, d.rule.c_str())) {
      continue;
    }
    kept.push_back(std::move(d));
  }
  diagnostics.swap(kept);
  if (self_check) {
    for (const SourceFile& file : prog.files) {
      if (InTestsDir(file.display_path)) continue;
      for (const auto& [line, rules] : file.markers) {
        if (rules.count("discarded-status")) {
          diagnostics.push_back(
              {file.display_path, line, "discarded-status",
               "suppressing discarded-status outside tests/ is forbidden; "
               "handle or propagate the Status"});
        }
        for (const char* rule :
             {"lock-order-inversion", "guarded-by", "alloc-in-hot-path"}) {
          if (rules.count(rule)) {
            diagnostics.push_back(
                {file.display_path, line, rule,
                 std::string("suppressing ") + rule +
                     " outside tests/ is forbidden; fix the root cause "
                     "instead of silencing the analyzer"});
          }
        }
      }
    }
  }

  std::sort(diagnostics.begin(), diagnostics.end());
  diagnostics.erase(std::unique(diagnostics.begin(), diagnostics.end()),
                    diagnostics.end());

  if (format == "json") {
    PrintJson(diagnostics);
  } else if (format == "sarif") {
    PrintSarif(diagnostics);
  } else {
    PrintText(diagnostics);
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now() - start_time)
                           .count();
  if (self_check || diagnostics.empty()) {
    std::fprintf(stderr, "kdsel-lint: %zu files scanned, %zu finding%s\n",
                 prog.files.size(), diagnostics.size(),
                 diagnostics.size() == 1 ? "" : "s");
  }
  if (self_check) {
    const std::string budget_note =
        budget_ms >= 0 ? " (budget " + std::to_string(budget_ms) + " ms)"
                       : std::string();
    std::fprintf(stderr, "kdsel-lint: full-tree lint took %lld ms%s\n",
                 static_cast<long long>(elapsed), budget_note.c_str());
  }
  if (budget_ms >= 0 && elapsed > budget_ms) {
    std::fprintf(stderr,
                 "kdsel-lint: budget exceeded: %lld ms > %ld ms\n",
                 static_cast<long long>(elapsed), budget_ms);
    return 1;
  }
  return diagnostics.empty() ? 0 : 1;
}
