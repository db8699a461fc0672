#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace malec::lint {
namespace {

namespace fs = std::filesystem;

bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool wordAt(const std::string& s, std::size_t pos, const std::string& word) {
  if (s.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && isIdentChar(s[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < s.size() && isIdentChar(s[end])) return false;
  return true;
}

/// Whole-word token presence anywhere in `s`.
bool containsWord(const std::string& s, const std::string& word) {
  for (std::size_t pos = s.find(word); pos != std::string::npos;
       pos = s.find(word, pos + 1)) {
    if (wordAt(s, pos, word)) return true;
  }
  return false;
}

std::size_t skipSpaces(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0)
    ++i;
  return i;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)
    --e;
  return s.substr(b, e - b);
}

/// Collapse whitespace runs to single spaces and trim — schema lines and
/// finding details must not depend on source formatting.
std::string normalizeSpace(const std::string& s) {
  std::string out;
  bool pending = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pending = !out.empty();
      continue;
    }
    if (pending) out += ' ';
    pending = false;
    out += c;
  }
  return out;
}

// --- waivers ----------------------------------------------------------------

struct Waiver {
  int line = 0;
  bool no_state = false;  ///< lint:no-state(reason)
  std::string rule;       ///< lint:allow(rule: reason)
  std::string reason;
};

/// Extract `lint:no-state` / `lint:allow` waiver markers. The input is
/// the string-blanked (comments kept) text: waivers live in comments, and
/// literals spelling a marker must not register as waivers.
std::vector<Waiver> extractWaivers(const std::string& raw,
                                   std::vector<Finding>& findings,
                                   const std::string& rel_path) {
  std::vector<Waiver> out;
  int line = 1;
  std::size_t line_start = 0;
  auto scanLine = [&](std::size_t begin, std::size_t end) {
    const std::string text = raw.substr(begin, end - begin);
    for (const char* marker : {"lint:no-state(", "lint:allow("}) {
      std::size_t pos = text.find(marker);
      if (pos == std::string::npos) continue;
      const std::size_t open = pos + std::string(marker).size() - 1;
      const std::size_t close = text.find(')', open);
      if (close == std::string::npos) {
        findings.push_back({rel_path, line, "waiver-syntax",
                            "unterminated lint waiver (missing ')')"});
        continue;
      }
      const std::string inner = text.substr(open + 1, close - open - 1);
      Waiver w;
      w.line = line;
      if (std::string(marker) == "lint:no-state(") {
        w.no_state = true;
        w.reason = trim(inner);
      } else {
        const std::size_t colon = inner.find(':');
        w.rule = trim(colon == std::string::npos ? inner
                                                 : inner.substr(0, colon));
        w.reason = colon == std::string::npos
                       ? std::string()
                       : trim(inner.substr(colon + 1));
      }
      if (w.reason.empty()) {
        findings.push_back(
            {rel_path, line, "waiver-syntax",
             "lint waiver needs a non-empty reason, e.g. "
             "// lint:allow(determinism: wall-clock timeout only)"});
        continue;
      }
      if (!w.no_state && w.rule.empty()) {
        findings.push_back({rel_path, line, "waiver-syntax",
                            "lint:allow waiver needs a rule name"});
        continue;
      }
      out.push_back(w);
    }
  };
  for (std::size_t i = 0; i <= raw.size(); ++i) {
    if (i == raw.size() || raw[i] == '\n') {
      scanLine(line_start, i);
      line_start = i + 1;
      ++line;
    }
  }
  return out;
}

// --- scrubbing --------------------------------------------------------------

/// Replace string/char-literal *contents* — and, when `blank_comments`,
/// comment text — with spaces (delimiting quotes are kept so "literal
/// present here" is still visible), preserving every newline so line
/// numbers survive. Waiver extraction scrubs literals but keeps comments
/// (waivers live in comments; a rule-message string that happens to spell
/// a waiver marker must not register).
std::string scrub(const std::string& raw, bool blank_comments = true) {
  std::string out = raw;
  std::size_t i = 0;
  const std::size_t n = raw.size();
  auto blank = [&](std::size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < n) {
    const char c = raw[i];
    if (c == '/' && i + 1 < n && raw[i + 1] == '/') {
      while (i < n && raw[i] != '\n') {
        if (blank_comments) blank(i);
        ++i;
      }
    } else if (c == '/' && i + 1 < n && raw[i + 1] == '*') {
      auto step = [&] {
        if (blank_comments) blank(i);
        ++i;
      };
      step();
      step();
      while (i + 1 < n && !(raw[i] == '*' && raw[i + 1] == '/')) step();
      if (i + 1 < n) {
        step();
        step();
      }
    } else if (c == '"') {
      // Raw string literal? R"delim( ... )delim"
      bool is_raw = false;
      if (i > 0 && raw[i - 1] == 'R' &&
          (i < 2 || !isIdentChar(raw[i - 2]))) {
        is_raw = true;
      }
      if (is_raw) {
        std::size_t p = i + 1;
        std::string delim;
        while (p < n && raw[p] != '(') delim += raw[p++];
        const std::string closer = ")" + delim + "\"";
        const std::size_t close = raw.find(closer, p);
        const std::size_t end =
            close == std::string::npos ? n : close + closer.size();
        ++i;  // keep the opening quote
        while (i < end - (close == std::string::npos ? 0 : 1)) blank(i++);
        if (close != std::string::npos) ++i;  // keep the closing quote
      } else {
        ++i;  // keep the opening quote
        while (i < n && raw[i] != '"') {
          if (raw[i] == '\\' && i + 1 < n) blank(i++);
          blank(i++);
        }
        if (i < n) ++i;  // keep the closing quote
      }
    } else if (c == '\'') {
      // Digit separators (1'000'000) and UDLs follow an identifier char;
      // real char literals never do.
      if (i > 0 && isIdentChar(raw[i - 1])) {
        ++i;
        continue;
      }
      ++i;  // keep the opening quote
      while (i < n && raw[i] != '\'') {
        if (raw[i] == '\\' && i + 1 < n) blank(i++);
        blank(i++);
      }
      if (i < n) ++i;
    } else {
      ++i;
    }
  }
  return out;
}

// --- line bookkeeping -------------------------------------------------------

class LineIndex {
 public:
  explicit LineIndex(const std::string& text) {
    starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts_.push_back(i + 1);
    }
  }
  [[nodiscard]] int lineOf(std::size_t offset) const {
    const auto it =
        std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<int>(it - starts_.begin());
  }

 private:
  std::vector<std::size_t> starts_;
};

// --- brace/angle helpers ----------------------------------------------------

/// Offset just past the brace matching the '{' at `open` (or text.size()).
std::size_t matchBrace(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i + 1;
  }
  return text.size();
}

/// Offset just past the paren matching the '(' at `open` (or text.size()).
std::size_t matchParen(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i + 1;
  }
  return text.size();
}

/// Remove the contents of balanced <...> groups (template args). `<` that
/// never closes (comparison) is left alone.
std::string stripAngles(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '<') {
      int depth = 1;
      std::size_t j = i + 1;
      for (; j < s.size() && depth > 0; ++j) {
        if (s[j] == '<') ++depth;
        if (s[j] == '>') --depth;
        if (s[j] == ';' || s[j] == '{') break;  // not a template group
      }
      if (depth == 0) {
        out += "<>";
        i = j - 1;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::string lastIdentifier(const std::string& s) {
  std::size_t end = s.size();
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0)
    --end;
  std::size_t begin = end;
  while (begin > 0 && isIdentChar(s[begin - 1])) --begin;
  if (begin == end) return {};
  const std::string id = s.substr(begin, end - begin);
  if (std::isdigit(static_cast<unsigned char>(id[0])) != 0) return {};
  return id;
}

/// Parameter name of a saveState/loadState signature: the last identifier
/// inside the first balanced paren group (`(ckpt::StateWriter& w) const`
/// -> "w"). Empty when no paren group or no parameter.
std::string signatureParamName(const std::string& signature) {
  const std::size_t open = signature.find('(');
  if (open == std::string::npos) return {};
  const std::size_t close = matchParen(signature, open);
  if (close <= open + 2) return {};  // "()" or unbalanced
  std::string inner = signature.substr(open + 1, close - open - 2);
  // Drop a default argument if one ever appears.
  const std::size_t eq = inner.find('=');
  if (eq != std::string::npos) inner = inner.substr(0, eq);
  return lastIdentifier(inner);
}

// --- per-file analysis state ------------------------------------------------

struct MemberDecl {
  std::string name;
  int line = 0;
};

/// Where one saveState/loadState definition body lives — the symmetry
/// pass anchors findings and waiver lookups here.
struct MethodDef {
  std::string file;
  int line = 0;
  std::string param;  ///< the StateWriter/StateReader parameter name
};

struct ClassInfo {
  std::string name;
  std::string file;  ///< relative path of the defining header/source
  int line = 0;
  std::vector<MemberDecl> members;
  bool declares_save = false;
  bool declares_load = false;
  bool pure_save = false;
  bool pure_load = false;
  std::string save_body;  ///< inline or out-of-line definition text
  std::string load_body;
  MethodDef save_def;
  MethodDef load_def;
};

/// [begin, end) offset ranges exempt from the hot-alloc rule: constructor,
/// destructor, saveState and loadState bodies.
using ExemptRanges = std::vector<std::pair<std::size_t, std::size_t>>;

struct FileData {
  std::string rel_path;
  std::string raw;
  std::string scrubbed;
  std::vector<Waiver> waivers;
  /// Restricted files (tools/, bench/) get only the determinism and
  /// strict-parse families — they never serialize simulated state.
  bool restricted = false;
  ExemptRanges alloc_exempt;
};

bool hasWaiver(const FileData& f, int line, const std::string& rule,
               bool want_no_state) {
  for (const Waiver& w : f.waivers) {
    if (w.line != line && w.line != line - 1) continue;
    if (want_no_state && w.no_state) return true;
    if (!want_no_state && !w.no_state && w.rule == rule) return true;
  }
  return false;
}

bool hasWaiverIn(const std::map<std::string, FileData>& files,
                 const std::string& rel_path, int line,
                 const std::string& rule) {
  const auto it = files.find(rel_path);
  return it != files.end() && hasWaiver(it->second, line, rule, false);
}

/// Component-boundary-aware suffix match: `core/foo.h` matches
/// `src/core/foo.h` but NOT `src/othercore/foo.h` — the suffix must be
/// the whole path or begin right after a '/'.
bool pathSuffixMatches(const std::string& rel_path,
                       const std::string& suffix) {
  if (rel_path.size() < suffix.size()) return false;
  if (rel_path.compare(rel_path.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
    return false;
  if (rel_path.size() == suffix.size()) return true;
  return rel_path[rel_path.size() - suffix.size() - 1] == '/';
}

bool allowlisted(const Options& opt, const std::string& rel_path,
                 const std::string& rule) {
  for (const AllowEntry& e : opt.allow) {
    if (e.rule != rule) continue;
    if (pathSuffixMatches(rel_path, e.path_suffix)) return true;
  }
  return false;
}

bool ruleEnabled(const Options& opt, const std::string& rule) {
  if (opt.rule_filter.empty()) return true;
  return std::find(opt.rule_filter.begin(), opt.rule_filter.end(), rule) !=
         opt.rule_filter.end();
}

// --- class / member parsing (R1) --------------------------------------------

/// Walk one class body (scrubbed text in [begin, end)), collecting member
/// declarations, saveState/loadState declarations and inline bodies, and
/// the hot-alloc-exempt body ranges (ctor/dtor/saveState/loadState).
/// Nested classes are found by the outer scan; their bodies are skipped
/// here so their members don't leak into the enclosing class.
void walkClassBody(const std::string& text, std::size_t begin,
                   std::size_t end, const LineIndex& lines,
                   const std::string& rel_path, ClassInfo& ci,
                   ExemptRanges& exempt) {
  std::string buf;
  std::size_t buf_start = begin;  // offset of first char in buf
  bool buf_dirty = false;
  auto resetBuf = [&](std::size_t at) {
    buf.clear();
    buf_start = at;
    buf_dirty = false;
  };
  auto firstToken = [&]() {
    const std::string t = trim(buf);
    std::size_t e = 0;
    while (e < t.size() && isIdentChar(t[e])) ++e;
    return t.substr(0, e);
  };
  auto classify = [&](bool pure_candidate) {
    const std::string t = trim(buf);
    if (t.empty()) return;
    const std::string stripped = stripAngles(t);
    const bool is_function = stripped.find('(') != std::string::npos;
    if (is_function) {
      const bool pure =
          pure_candidate && stripped.find("= 0") != std::string::npos;
      if (containsWord(stripped, "saveState")) {
        ci.declares_save = true;
        ci.pure_save = pure;
      }
      if (containsWord(stripped, "loadState")) {
        ci.declares_load = true;
        ci.pure_load = pure;
      }
      return;
    }
    const std::string head = firstToken();
    static const std::set<std::string> kSkipHeads = {
        "using",  "typedef", "friend",   "template", "struct",
        "class",  "union",   "enum",     "public",   "protected",
        "private"};
    if (kSkipHeads.count(head) != 0) return;
    if (containsWord(stripped, "static") ||
        containsWord(stripped, "constexpr"))
      return;  // not instance state
    // Split top-level comma declarators: `int a_, b_;`
    std::vector<std::string> chunks;
    std::string cur;
    int bracket = 0;
    for (char c : stripped) {
      if (c == '[' || c == '(') ++bracket;
      if (c == ']' || c == ')') --bracket;
      if (c == ',' && bracket == 0) {
        chunks.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    chunks.push_back(cur);
    for (std::size_t ci_idx = 0; ci_idx < chunks.size(); ++ci_idx) {
      std::string chunk = chunks[ci_idx];
      // Truncate at initializer.
      for (const char stop : {'=', '{'}) {
        const std::size_t p = chunk.find(stop);
        if (p != std::string::npos) chunk = chunk.substr(0, p);
      }
      // Strip array extents.
      const std::size_t br = chunk.find('[');
      if (br != std::string::npos) chunk = chunk.substr(0, br);
      const std::string name = lastIdentifier(chunk);
      if (name.empty()) continue;
      // A lone identifier in the first chunk is a type name, not a
      // declarator (continuation chunks of `int a_, b_;` ARE lone).
      if (ci_idx == 0 && trim(chunk) == name) continue;
      ci.members.push_back({name, lines.lineOf(buf_start)});
    }
  };

  std::size_t i = begin;
  while (i < end) {
    const char c = text[i];
    if (c == '{') {
      const std::string stripped = stripAngles(buf);
      const bool fn = stripped.find('(') != std::string::npos;
      const std::string head = firstToken();
      const bool nested = head == "struct" || head == "class" ||
                          head == "union" || head == "enum";
      const std::size_t close = matchBrace(text, i);
      if (fn) {
        // Function definition (or a brace in its ctor-init-list). Capture
        // saveState/loadState inline bodies.
        const std::string body = text.substr(i, close - i);
        const std::size_t after = skipSpaces(text, close);
        const char nxt = after < end ? text[after] : ';';
        const bool continues = nxt == ':' || nxt == ',' || nxt == '{';
        if (!continues) {
          // Function name = last identifier before the signature's
          // first '(' — tells ctors/dtors and the state methods apart.
          const std::size_t sig_paren = stripped.find('(');
          const std::string fname =
              lastIdentifier(stripped.substr(0, sig_paren));
          if (containsWord(stripped, "saveState")) {
            ci.declares_save = true;
            ci.save_body += body;
            ci.save_def = {rel_path, lines.lineOf(buf_start),
                           signatureParamName(stripped)};
          }
          if (containsWord(stripped, "loadState")) {
            ci.declares_load = true;
            ci.load_body += body;
            ci.load_def = {rel_path, lines.lineOf(buf_start),
                           signatureParamName(stripped)};
          }
          if (fname == ci.name || fname == "saveState" ||
              fname == "loadState")
            exempt.push_back({i, close});
          i = close;
          if (i < end && text[skipSpaces(text, i)] == ';')
            i = skipSpaces(text, i) + 1;
          resetBuf(i);
          continue;
        }
        i = close;
        continue;  // keep buffer: init-list continues
      }
      if (nested) {
        i = close;  // outer scan records the nested class separately
        // keep the buffer: `} name_;` declares a member of *this* class,
        // classified at the `;` (head `struct` is skipped unless a
        // declarator follows — handled below by rewriting the head).
        buf += " ";
        continue;
      }
      // Paren-less brace: member aggregate-init `staged_{}` — skip the
      // initializer, keep the declarator collected so far.
      i = close;
      buf += " =";  // ensure classify() truncates at the initializer
      continue;
    }
    if (c == ';') {
      const std::string head = firstToken();
      if ((head == "struct" || head == "class" || head == "union" ||
           head == "enum")) {
        // `struct Foo { ... } foo_;` / `struct Foo foo_;`: a declarator
        // identifier after the type name is a member of *this* class. A
        // plain nested definition or forward declaration ends with the
        // type name itself, which directly follows the keyword — skip.
        const std::string t = trim(buf);
        const std::string name = lastIdentifier(stripAngles(t));
        std::size_t p = skipSpaces(t, head.size());
        std::size_t e = p;
        while (e < t.size() && isIdentChar(t[e])) ++e;
        const std::string type_name = t.substr(p, e - p);
        if (!name.empty() && name != head && name != type_name)
          ci.members.push_back({name, lines.lineOf(buf_start)});
      } else {
        classify(true);
      }
      ++i;
      resetBuf(i);
      continue;
    }
    if (!buf_dirty &&
        std::isspace(static_cast<unsigned char>(c)) == 0) {
      buf_start = i;
      buf_dirty = true;
    }
    // Access-specifier labels clear the buffer.
    if (c == ':' && i + 1 < end && text[i + 1] != ':' &&
        (i == begin || text[i - 1] != ':')) {
      const std::string t = trim(buf);
      if (t == "public" || t == "private" || t == "protected" ||
          t == "signals") {
        ++i;
        resetBuf(i);
        continue;
      }
    }
    buf += c;
    ++i;
  }
}

/// Find every class/struct definition in scrubbed text (recursing into
/// nested bodies) and record those declaring saveState/loadState.
void scanClasses(FileData& f, const LineIndex& lines,
                 std::vector<ClassInfo>& classes) {
  const std::string& text = f.scrubbed;
  for (std::size_t i = 0; i + 5 < text.size(); ++i) {
    const bool is_class = wordAt(text, i, "class");
    const bool is_struct = wordAt(text, i, "struct");
    if (!is_class && !is_struct) continue;
    // `enum class` is not a class.
    if (i >= 5) {
      std::size_t p = i;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(text[p - 1])) != 0)
        --p;
      if (p >= 4 && text.compare(p - 4, 4, "enum") == 0) continue;
    }
    std::size_t p = i + (is_class ? 5 : 6);
    p = skipSpaces(text, p);
    // Skip attributes / export macros (all-caps identifiers) before the
    // name: take the last identifier before ':' '{' ';' '<'.
    std::size_t name_begin = p;
    while (p < text.size() && isIdentChar(text[p])) ++p;
    const std::string name = text.substr(name_begin, p - name_begin);
    if (name.empty()) continue;
    p = skipSpaces(text, p);
    if (p < text.size() && text[p] == '<') continue;  // specialization
    // Scan to the body '{' or a ';' (forward decl) at paren depth 0.
    int paren = 0;
    std::size_t body = std::string::npos;
    for (std::size_t j = p; j < text.size(); ++j) {
      const char c = text[j];
      if (c == '(') ++paren;
      if (c == ')') --paren;
      if (paren == 0 && c == ';') break;
      if (paren == 0 && c == '{') {
        body = j;
        break;
      }
      if (c == '=') break;  // `using X = class ...`? bail out
    }
    if (body == std::string::npos) continue;
    const std::size_t close = matchBrace(text, body);
    ClassInfo ci;
    ci.name = name;
    ci.file = f.rel_path;
    ci.line = lines.lineOf(i);
    walkClassBody(text, body + 1, close > 0 ? close - 1 : close, lines,
                  f.rel_path, ci, f.alloc_exempt);
    classes.push_back(std::move(ci));
  }
}

/// Attach out-of-line `X::saveState` / `X::loadState` bodies, recording
/// the defining file/line and parameter name for the symmetry pass.
void attachOutOfLineBodies(const std::vector<FileData*>& files,
                           std::vector<ClassInfo>& classes) {
  for (ClassInfo& ci : classes) {
    if (!ci.declares_save && !ci.declares_load) continue;
    for (const char* method : {"saveState", "loadState"}) {
      const bool is_save = std::string(method) == "saveState";
      std::string& body = is_save ? ci.save_body : ci.load_body;
      MethodDef& def = is_save ? ci.save_def : ci.load_def;
      if (!body.empty()) continue;
      const std::string pattern = ci.name + "::" + method;
      for (const FileData* fp : files) {
        if (fp->restricted) continue;
        const std::string& text = fp->scrubbed;
        for (std::size_t pos = text.find(pattern);
             pos != std::string::npos;
             pos = text.find(pattern, pos + 1)) {
          if (pos > 0 && isIdentChar(text[pos - 1])) continue;
          const std::size_t open = text.find('{', pos);
          if (open == std::string::npos) continue;
          // Reject declarations (a ';' before the '{' means this wasn't
          // a definition).
          const std::string between = text.substr(pos, open - pos);
          if (between.find(';') != std::string::npos) continue;
          body += text.substr(open, matchBrace(text, open) - open);
          def.file = fp->rel_path;
          def.line = LineIndex(text).lineOf(pos);
          def.param = signatureParamName(between);
          break;
        }
        if (!body.empty()) break;
      }
    }
  }
}

/// Out-of-line hot-alloc exemptions: `X::X(...)`, `X::~X()`,
/// `X::saveState(...)` and `X::loadState(...)` definition bodies in the
/// file's scrubbed text. The init-list walk treats each `name(...)` /
/// `name{...}` initializer as one unit, so a brace initializer is never
/// mistaken for the function body.
void collectOutOfLineExemptRanges(FileData& f) {
  const std::string& text = f.scrubbed;
  for (std::size_t pos = text.find("::"); pos != std::string::npos;
       pos = text.find("::", pos + 2)) {
    // Left identifier.
    std::size_t lb = pos;
    while (lb > 0 && isIdentChar(text[lb - 1])) --lb;
    if (lb == pos) continue;
    const std::string left = text.substr(lb, pos - lb);
    // Right token: optional '~', then an identifier.
    std::size_t rb = pos + 2;
    bool dtor = false;
    if (rb < text.size() && text[rb] == '~') {
      dtor = true;
      ++rb;
    }
    std::size_t re = rb;
    while (re < text.size() && isIdentChar(text[re])) ++re;
    const std::string right = text.substr(rb, re - rb);
    if (right.empty()) continue;
    const bool interesting =
        right == left || (dtor && right == left) ||
        (!dtor && (right == "saveState" || right == "loadState"));
    if (!interesting || (!dtor && right != left && right != "saveState" &&
                         right != "loadState"))
      continue;
    std::size_t p = skipSpaces(text, re);
    if (p >= text.size() || text[p] != '(') continue;
    p = matchParen(text, p);
    // Trailing qualifiers before the body or init-list.
    for (;;) {
      p = skipSpaces(text, p);
      if (p >= text.size()) break;
      if (isIdentChar(text[p])) {  // const, noexcept, override...
        while (p < text.size() && isIdentChar(text[p])) ++p;
        continue;
      }
      break;
    }
    if (p < text.size() && text[p] == ':' &&
        (p + 1 >= text.size() || text[p + 1] != ':')) {
      // ctor-init-list: `ident(args)` or `ident{args}` units, comma-
      // separated; the first top-level token after the list is the body.
      ++p;
      for (;;) {
        p = skipSpaces(text, p);
        while (p < text.size() &&
               (isIdentChar(text[p]) || text[p] == ':' || text[p] == '<' ||
                text[p] == '>'))
          ++p;
        p = skipSpaces(text, p);
        if (p < text.size() && text[p] == '(')
          p = matchParen(text, p);
        else if (p < text.size() && text[p] == '{')
          p = matchBrace(text, p);
        else
          break;
        p = skipSpaces(text, p);
        if (p < text.size() && text[p] == ',') {
          ++p;
          continue;
        }
        break;
      }
    }
    if (p >= text.size() || text[p] != '{') continue;  // declaration
    const std::size_t close = matchBrace(text, p);
    f.alloc_exempt.push_back({p, close});
    pos = close >= 2 ? close - 2 : close;
  }
}

// --- token rules (R2/R3a/R4/R7) ---------------------------------------------

struct TokenRule {
  std::string rule;
  std::string token;    ///< word-boundary token
  bool call_only;       ///< require '(' (or '<' template args) next
  bool string_keyed;    ///< require '"' right after the '('
  std::string message;
  bool scope_call = false;  ///< require the token be preceded by "::"
  bool bare_word = false;   ///< flag the word alone (the `new` keyword)
};

const std::vector<TokenRule>& determinismRules() {
  static const std::vector<TokenRule> kRules = {
      {"determinism", "rand", true, false,
       "rand() breaks seeded determinism — use common/rng.h Rng"},
      {"determinism", "srand", true, false,
       "srand() breaks seeded determinism — use common/rng.h Rng"},
      {"determinism", "random_device", false, false,
       "std::random_device is nondeterministic — seed a common/rng.h Rng"},
      {"determinism", "time", true, false,
       "time() makes runs irreproducible — derive everything from the "
       "seed"},
      {"determinism", "clock", true, false,
       "clock() makes runs irreproducible — derive everything from the "
       "seed"},
      {"determinism", "now", true, false,
       "*_clock::now() makes runs irreproducible — simulated state must "
       "be a pure function of the seed",
       /*scope_call=*/true},
  };
  return kRules;
}

const std::vector<TokenRule>& strictParseRules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    for (const char* fn :
         {"atoi", "atol", "atoll", "atof", "stoi", "stol", "stoll",
          "stoul", "stoull", "stof", "stod", "strtol", "strtoul",
          "strtoll", "strtoull", "strtof", "strtod", "sscanf"}) {
      v.push_back({"strict-parse", fn, true, false,
                   std::string(fn) +
                       "() accepts sloppy numerics — use "
                       "sim::parseU64Strict"});
    }
    return v;
  }();
  return kRules;
}

const std::vector<TokenRule>& eventIdRules() {
  static const std::vector<TokenRule> kRules = {
      {"eventid", "count", true, true,
       "string-keyed count() in a per-cycle directory — cache an EventId "
       "at construction and use count(EventId)"},
      {"eventid", "eventCount", true, true,
       "string-keyed eventCount() in a per-cycle directory — use the "
       "EventId overload"},
      {"eventid", "eventEnergyPj", true, true,
       "string-keyed eventEnergyPj() in a per-cycle directory — use the "
       "EventId overload"},
      {"eventid", "to_string", true, false,
       "to_string allocates — keep strings out of per-cycle directories"},
      {"eventid", "ostringstream", false, false,
       "string streams allocate — keep them out of per-cycle directories"},
      {"eventid", "stringstream", false, false,
       "string streams allocate — keep them out of per-cycle directories"},
  };
  return kRules;
}

const std::vector<TokenRule>& hotAllocRules() {
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> v;
    const char* suffix =
        " in a per-cycle directory outside ctor/saveState/loadState — the "
        "run loop must not allocate; hoist to construction or waive with "
        "// lint:allow(hot-alloc: reason)";
    v.push_back({"hot-alloc", "new", false, false,
                 std::string("`new`") + suffix, false, /*bare_word=*/true});
    for (const char* fn : {"malloc", "calloc", "realloc", "make_unique",
                           "make_shared", "push_back", "emplace_back",
                           "resize"}) {
      v.push_back({"hot-alloc", fn, true, false,
                   std::string(fn) + "()" + suffix});
    }
    return v;
  }();
  return kRules;
}

bool inExemptRange(const ExemptRanges& ranges, std::size_t pos) {
  for (const auto& [b, e] : ranges) {
    if (pos >= b && pos < e) return true;
  }
  return false;
}

void applyTokenRules(const Options& opt, const FileData& f,
                     const LineIndex& lines,
                     const std::vector<TokenRule>& rules,
                     std::vector<Finding>& findings,
                     bool honor_exempt_ranges = false) {
  const std::string& text = f.scrubbed;
  for (const TokenRule& r : rules) {
    if (!ruleEnabled(opt, r.rule)) continue;
    if (allowlisted(opt, f.rel_path, r.rule)) continue;
    for (std::size_t pos = text.find(r.token); pos != std::string::npos;
         pos = text.find(r.token, pos + 1)) {
      if (!wordAt(text, pos, r.token)) continue;
      if (r.scope_call &&
          (pos < 2 || text.compare(pos - 2, 2, "::") != 0))
        continue;
      std::size_t after = skipSpaces(text, pos + r.token.size());
      if (r.call_only && !r.bare_word) {
        if (after >= text.size() ||
            (text[after] != '(' && text[after] != '<'))
          continue;
        if (r.string_keyed) {
          if (text[after] != '(') continue;
          after = skipSpaces(text, after + 1);
          if (after >= text.size() || text[after] != '"') continue;
        }
        // `.count(` on containers is std::map/set API, not the energy
        // API — still flagged for `count` in per-cycle dirs ONLY when
        // string-keyed, which containers of strings would be; accept.
      }
      if (honor_exempt_ranges && inExemptRange(f.alloc_exempt, pos))
        continue;
      const int line = lines.lineOf(pos);
      if (hasWaiver(f, line, r.rule, false)) continue;
      findings.push_back({f.rel_path, line, r.rule, r.message});
    }
  }
}

// --- unordered-container ordering rule (R3b) --------------------------------

/// Collect identifiers declared with an unordered_map/unordered_set type
/// anywhere in the file (members and locals alike).
std::set<std::string> unorderedNames(const std::string& text) {
  std::set<std::string> names;
  for (const char* kw : {"unordered_map", "unordered_set"}) {
    for (std::size_t pos = text.find(kw); pos != std::string::npos;
         pos = text.find(kw, pos + 1)) {
      if (!wordAt(text, pos, kw)) continue;
      std::size_t p = skipSpaces(text, pos + std::string(kw).size());
      if (p >= text.size() || text[p] != '<') continue;
      int depth = 0;
      for (; p < text.size(); ++p) {
        if (text[p] == '<') ++depth;
        if (text[p] == '>' && --depth == 0) {
          ++p;
          break;
        }
        if (text[p] == ';') break;
      }
      if (depth != 0) continue;
      p = skipSpaces(text, p);
      if (p < text.size() && text[p] == '&') p = skipSpaces(text, p + 1);
      std::size_t b = p;
      while (p < text.size() && isIdentChar(text[p])) ++p;
      if (p > b) names.insert(text.substr(b, p - b));
    }
  }
  return names;
}

bool writesSerializedBytes(const std::string& text) {
  return containsWord(text, "StateWriter") ||
         containsWord(text, "ResultSink");
}

void applyUnorderedOrderRule(const Options& opt, const FileData& f,
                             const LineIndex& lines,
                             const std::set<std::string>& global_names,
                             std::vector<Finding>& findings) {
  if (!ruleEnabled(opt, "udc-order")) return;
  if (allowlisted(opt, f.rel_path, "udc-order")) return;
  const std::string& text = f.scrubbed;
  if (!writesSerializedBytes(text)) return;
  // Names declared unordered anywhere in the scanned tree: a member
  // declared in the header is iterated from the .cpp.
  const std::set<std::string>& names = global_names;
  if (names.empty()) return;
  std::set<std::pair<int, std::string>> flagged;  // dedupe per line+name
  auto flag = [&](std::size_t pos, const std::string& name,
                  const std::string& what) {
    const int line = lines.lineOf(pos);
    if (hasWaiver(f, line, "udc-order", false)) return;
    if (!flagged.insert({line, name}).second) return;
    findings.push_back(
        {f.rel_path, line, "udc-order",
         what + " over unordered container '" + name +
             "' in a file that writes serialized bytes — hash order "
             "must never reach checkpoints or reports; sort into a "
             "vector first (then waive the sorted copy)"});
  };
  // Range-for: `for (decl : expr)` where expr's last identifier is an
  // unordered container.
  for (std::size_t pos = text.find("for"); pos != std::string::npos;
       pos = text.find("for", pos + 1)) {
    if (!wordAt(text, pos, "for")) continue;
    std::size_t p = skipSpaces(text, pos + 3);
    if (p >= text.size() || text[p] != '(') continue;
    int depth = 0;
    std::size_t close = p;
    for (; close < text.size(); ++close) {
      if (text[close] == '(') ++depth;
      if (text[close] == ')' && --depth == 0) break;
    }
    if (close >= text.size()) continue;
    const std::string inner = text.substr(p + 1, close - p - 1);
    // top-level single ':' split (ignore '::')
    std::size_t colon = std::string::npos;
    int d2 = 0;
    for (std::size_t k = 0; k < inner.size(); ++k) {
      const char ch = inner[k];
      if (ch == '(' || ch == '[' || ch == '{' || ch == '<') ++d2;
      if (ch == ')' || ch == ']' || ch == '}' || ch == '>') --d2;
      if (ch == ':' && d2 == 0) {
        if (k + 1 < inner.size() && inner[k + 1] == ':') {
          ++k;
          continue;
        }
        if (k > 0 && inner[k - 1] == ':') continue;
        colon = k;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = trim(inner.substr(colon + 1));
    const std::string name = lastIdentifier(range);
    if (!name.empty() && names.count(name) != 0)
      flag(pos, name, "range-for");
  }
  // begin()/cbegin() on a known unordered name starts an iteration in
  // hash order (`find(x) != end()` alone is an order-free lookup, so a
  // bare .end() is not flagged).
  for (const std::string& name : names) {
    for (std::size_t pos = text.find(name); pos != std::string::npos;
         pos = text.find(name, pos + 1)) {
      if (!wordAt(text, pos, name)) continue;
      std::size_t p = pos + name.size();
      if (p >= text.size() || text[p] != '.') continue;
      ++p;
      for (const char* m : {"begin", "cbegin"}) {
        if (wordAt(text, p, m)) {
          const std::size_t q = skipSpaces(text, p + std::string(m).size());
          if (q < text.size() && text[q] == '(')
            flag(pos, name, std::string(".") + m + "()");
        }
      }
    }
  }
}

// --- checkpoint completeness (R1) -------------------------------------------

void applyCheckpointRule(const Options& opt,
                         const std::map<std::string, FileData>& files,
                         std::vector<ClassInfo>& classes,
                         std::vector<Finding>& findings,
                         std::vector<std::string>& stateful) {
  for (ClassInfo& ci : classes) {
    if (!(ci.declares_save && ci.declares_load)) continue;
    if (ci.pure_save || ci.pure_load) continue;  // abstract interface
    stateful.push_back(ci.name);
    if (!ruleEnabled(opt, "checkpoint-state")) continue;
    if (allowlisted(opt, ci.file, "checkpoint-state")) continue;
    const FileData& f = files.at(ci.file);
    if (ci.save_body.empty() || ci.load_body.empty()) {
      findings.push_back(
          {ci.file, ci.line, "checkpoint-state",
           "could not locate the " +
               std::string(ci.save_body.empty() ? "saveState"
                                                : "loadState") +
               " definition for stateful class '" + ci.name + "'"});
      continue;
    }
    for (const MemberDecl& m : ci.members) {
      const bool in_save = containsWord(ci.save_body, m.name);
      const bool in_load = containsWord(ci.load_body, m.name);
      if (in_save && in_load) continue;
      if (hasWaiver(f, m.line, "checkpoint-state", true)) continue;
      std::string where =
          !in_save && !in_load
              ? "saveState or loadState"
              : (!in_save ? "saveState" : "loadState");
      findings.push_back(
          {ci.file, m.line, "checkpoint-state",
           "member '" + m.name + "' of stateful class '" + ci.name +
               "' is not referenced in " + where +
               " — serialize it or waive with // lint:no-state(reason)"});
    }
  }
  std::sort(stateful.begin(), stateful.end());
  stateful.erase(std::unique(stateful.begin(), stateful.end()),
                 stateful.end());
}

// --- save/load symmetry + schema extraction (R5) ----------------------------

/// One StateWriter/StateReader operation in a saveState/loadState body.
struct CkptOp {
  std::string kind;    ///< u8|u32|u64|f64|str|bytes | sub | call
  std::string detail;  ///< argument / owner / helper call text
};

bool isPrimitiveOp(const std::string& name) {
  return name == "u8" || name == "u32" || name == "u64" || name == "f64" ||
         name == "str" || name == "bytes";
}

/// First argument of the call whose '(' is at `open` — text up to the
/// top-level ',' or the closing ')'.
std::string firstArgText(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return text.substr(open + 1, i - open - 1);
    }
    if (c == ',' && depth == 1)
      return text.substr(open + 1, i - open - 1);
  }
  return {};
}

/// The qualified expression ending at `end` (exclusive): identifiers
/// joined by '.', '->' and '::' — `repl_->saveState`, `lq_.saveState`.
std::string qualifiedExprEndingAt(const std::string& text,
                                  std::size_t end) {
  std::size_t b = end;
  while (b > 0) {
    const char c = text[b - 1];
    if (isIdentChar(c) || c == '.' || c == ':') {
      --b;
      continue;
    }
    if (c == '>' && b >= 2 && text[b - 2] == '-') {
      b -= 2;
      continue;
    }
    break;
  }
  return text.substr(b, end - b);
}

/// Extract the ordered StateWriter/StateReader operation sequence from a
/// saveState/loadState body, given the writer/reader parameter name:
///   param.u64(expr)            -> {u64, expr}
///   owner.saveState(param)     -> {sub, owner.saveState}
///   helper(param, more...)     -> {call, helper(...)}
/// Left-to-right textual order IS the serialization order for straight-
/// line code; loops contribute their body once (symmetric on both sides
/// when the loop bodies pair up — shapes that don't are waived).
std::vector<CkptOp> extractCkptOps(const std::string& body,
                                   const std::string& param,
                                   const std::string& method_word) {
  std::vector<CkptOp> ops;
  if (param.empty()) return ops;
  for (std::size_t pos = body.find(param); pos != std::string::npos;
       pos = body.find(param, pos + 1)) {
    if (!wordAt(body, pos, param)) continue;
    std::size_t after = skipSpaces(body, pos + param.size());
    if (after < body.size() && body[after] == '.') {
      std::size_t mb = skipSpaces(body, after + 1);
      std::size_t me = mb;
      while (me < body.size() && isIdentChar(body[me])) ++me;
      const std::string m = body.substr(mb, me - mb);
      const std::size_t open = skipSpaces(body, me);
      if (isPrimitiveOp(m) && open < body.size() && body[open] == '(') {
        ops.push_back({m, normalizeSpace(firstArgText(body, open))});
      }
      continue;
    }
    if (after >= body.size() || (body[after] != ',' && body[after] != ')'))
      continue;
    // The param is a whole argument — find the innermost enclosing call.
    int depth = 0;
    std::size_t open = std::string::npos;
    for (std::size_t j = pos; j > 0; --j) {
      const char c = body[j - 1];
      if (c == ')') ++depth;
      if (c == '(') {
        if (depth == 0) {
          open = j - 1;
          break;
        }
        --depth;
      }
    }
    if (open == std::string::npos) continue;
    std::size_t ne = open;
    while (ne > 0 &&
           std::isspace(static_cast<unsigned char>(body[ne - 1])) != 0)
      --ne;
    std::size_t nb = ne;
    while (nb > 0 && isIdentChar(body[nb - 1])) --nb;
    const std::string callee = body.substr(nb, ne - nb);
    if (callee.empty()) continue;  // parenthesized expression, not a call
    static const std::set<std::string> kKeywords = {
        "if", "while", "for", "switch", "return", "sizeof"};
    if (kKeywords.count(callee) != 0) continue;
    if (callee == method_word) {
      ops.push_back({"sub", normalizeSpace(qualifiedExprEndingAt(body, ne))});
    } else if (callee == "saveState" || callee == "loadState") {
      // A save body calling loadState (or vice versa) is still a nested
      // component hand-off — record it so the mismatch shows as order
      // divergence, not a miscount.
      ops.push_back({"sub", normalizeSpace(qualifiedExprEndingAt(body, ne))});
    } else {
      const std::size_t close =
          std::min(matchParen(body, open), body.size());
      std::string call_text =
          qualifiedExprEndingAt(body, ne) + body.substr(ne, close - ne);
      ops.push_back({"call", normalizeSpace(call_text)});
    }
  }
  return ops;
}

std::string describeOp(const CkptOp& op) {
  if (op.kind == "sub") return "sub " + op.detail;
  if (op.kind == "call") return "call " + op.detail;
  return op.kind + "(" + op.detail + ")";
}

void applySymmetryRule(const Options& opt,
                       const std::map<std::string, FileData>& files,
                       const std::vector<ClassInfo>& classes,
                       std::vector<Finding>& findings,
                       std::vector<ClassSchema>& schemas) {
  for (const ClassInfo& ci : classes) {
    if (!(ci.declares_save && ci.declares_load)) continue;
    if (ci.pure_save || ci.pure_load) continue;
    if (ci.save_body.empty() || ci.load_body.empty()) continue;
    const std::vector<CkptOp> save_ops =
        extractCkptOps(ci.save_body, ci.save_def.param, "saveState");
    const std::vector<CkptOp> load_ops =
        extractCkptOps(ci.load_body, ci.load_def.param, "loadState");

    // Schema: the ordered field layout the saveState body writes. Always
    // extracted (the drift gate needs it even when the rule is waived).
    ClassSchema schema;
    schema.class_name = ci.name;
    schema.file = ci.save_def.file.empty() ? ci.file : ci.save_def.file;
    for (const CkptOp& op : save_ops) {
      if (op.kind == "sub")
        schema.lines.push_back("sub " + op.detail);
      else if (op.kind == "call")
        schema.lines.push_back("call " + op.detail);
      else
        schema.lines.push_back(op.kind + " " + op.detail);
    }
    schemas.push_back(std::move(schema));

    if (!ruleEnabled(opt, "ckpt-symmetry")) continue;
    const std::string anchor_file =
        ci.save_def.file.empty() ? ci.file : ci.save_def.file;
    const int anchor_line =
        ci.save_def.file.empty() ? ci.line : ci.save_def.line;
    if (allowlisted(opt, anchor_file, "ckpt-symmetry") ||
        allowlisted(opt, ci.file, "ckpt-symmetry"))
      continue;
    // Per-method waiver: on/above the class, saveState or loadState
    // definition line.
    if (hasWaiverIn(files, ci.file, ci.line, "ckpt-symmetry")) continue;
    if (!ci.save_def.file.empty() &&
        hasWaiverIn(files, ci.save_def.file, ci.save_def.line,
                    "ckpt-symmetry"))
      continue;
    if (!ci.load_def.file.empty() &&
        hasWaiverIn(files, ci.load_def.file, ci.load_def.line,
                    "ckpt-symmetry"))
      continue;
    if (ci.save_def.param.empty() || ci.load_def.param.empty())
      continue;  // signature the lexical pass can't see through

    const std::size_t n = std::min(save_ops.size(), load_ops.size());
    std::size_t diverge = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (save_ops[i].kind != load_ops[i].kind) {
        diverge = i;
        break;
      }
    }
    if (diverge < n) {
      findings.push_back(
          {anchor_file, anchor_line, "ckpt-symmetry",
           "stateful class '" + ci.name + "': op #" +
               std::to_string(diverge + 1) + " diverges — saveState " +
               describeOp(save_ops[diverge]) + " vs loadState " +
               describeOp(load_ops[diverge]) +
               " — a restored checkpoint would misread every later "
               "field; reorder the bodies or waive with "
               "// lint:allow(ckpt-symmetry: reason)"});
    } else if (save_ops.size() != load_ops.size()) {
      const bool save_more = save_ops.size() > load_ops.size();
      const CkptOp& extra =
          save_more ? save_ops[n] : load_ops[n];
      findings.push_back(
          {anchor_file, anchor_line, "ckpt-symmetry",
           "stateful class '" + ci.name + "': saveState emits " +
               std::to_string(save_ops.size()) +
               " StateWriter ops but loadState consumes " +
               std::to_string(load_ops.size()) +
               " (first unmatched: " +
               std::string(save_more ? "saveState " : "loadState ") +
               describeOp(extra) +
               ") — pair the bodies or waive with "
               "// lint:allow(ckpt-symmetry: reason)"});
    }
  }
  std::sort(schemas.begin(), schemas.end(),
            [](const ClassSchema& a, const ClassSchema& b) {
              return std::tie(a.class_name, a.file) <
                     std::tie(b.class_name, b.file);
            });
}

// --- layer DAG (R6) ---------------------------------------------------------

/// The normative allowed-edges table: src/<key> may include headers only
/// from itself and the listed components. This is docs/ARCHITECTURE.md's
/// layer diagram, transitively closed — keep the two in sync (the doc
/// carries the same table).
const std::map<std::string, std::set<std::string>>& layerAllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kTable = [] {
    std::map<std::string, std::set<std::string>> t;
    t["common"] = {};
    t["ckpt"] = {"common"};
    t["mem"] = {"common", "ckpt"};
    t["tlb"] = {"common", "ckpt", "mem"};
    t["waydet"] = {"common", "ckpt", "mem"};
    t["lsq"] = {"common", "ckpt"};
    t["energy"] = {"common", "ckpt"};
    t["trace"] = {"common", "ckpt"};
    t["phase"] = {"common", "ckpt", "trace"};
    t["core"] = {"common", "ckpt", "mem", "tlb", "waydet", "lsq",
                 "energy"};
    t["cpu"] = {"common", "ckpt", "mem",  "tlb",   "waydet",
                "lsq",    "energy", "core", "trace"};
    t["sim"] = {"common", "ckpt", "mem",  "tlb",  "waydet", "lsq",
                "energy", "core", "cpu",  "trace", "phase"};
    t["sweep"] = t["sim"];
    t["sweep"].insert("sim");
    t["store"] = t["sweep"];
    t["store"].insert("sweep");
    return t;
  }();
  return kTable;
}

/// Component of a scanned path: `src/<comp>/...` -> comp, else empty.
std::string srcComponentOf(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) != 0) return {};
  const std::size_t slash = rel_path.find('/', 4);
  if (slash == std::string::npos) return {};  // file directly in src/
  return rel_path.substr(4, slash - 4);
}

void applyLayeringRule(const Options& opt, const FileData& f,
                       std::vector<Finding>& findings) {
  if (!ruleEnabled(opt, "layering")) return;
  if (allowlisted(opt, f.rel_path, "layering")) return;
  const std::string comp = srcComponentOf(f.rel_path);
  if (comp.empty()) return;
  const auto& table = layerAllowedDeps();
  const auto self = table.find(comp);
  // Includes live in string literals, which scrub() blanks — walk the RAW
  // text line by line.
  int line = 0;
  std::size_t start = 0;
  const std::string& raw = f.raw;
  while (start <= raw.size()) {
    std::size_t end = raw.find('\n', start);
    if (end == std::string::npos) end = raw.size();
    ++line;
    const std::string text = trim(raw.substr(start, end - start));
    start = end + 1;
    if (text.rfind("#include", 0) != 0) continue;
    const std::size_t q1 = text.find('"');
    if (q1 == std::string::npos) continue;  // <system> include
    const std::size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string target = text.substr(q1 + 1, q2 - q1 - 1);
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // local header
    const std::string dep = target.substr(0, slash);
    if (dep == comp) continue;
    if (table.count(dep) == 0) continue;  // not a src component path
    if (hasWaiver(f, line, "layering", false)) continue;
    if (self == table.end()) {
      findings.push_back(
          {f.rel_path, line, "layering",
           "component 'src/" + comp +
               "' is not in the layer table but includes \"" + target +
               "\" — add the component and its allowed dependencies to "
               "tools/lint layerAllowedDeps() and the "
               "docs/ARCHITECTURE.md layer DAG"});
      continue;
    }
    if (self->second.count(dep) != 0) continue;
    findings.push_back(
        {f.rel_path, line, "layering",
         "#include \"" + target + "\" points up the layer stack: src/" +
             comp + " may depend on {" +
             [&] {
               std::string s;
               for (const std::string& d : self->second)
                 s += (s.empty() ? "" : ", ") + d;
               return s;
             }() +
             "} only (docs/ARCHITECTURE.md layer DAG) — invert the "
             "dependency or move the shared piece down the stack"});
  }
}

}  // namespace

// --- public API -------------------------------------------------------------

const std::vector<std::string>& ruleFamilies() {
  static const std::vector<std::string> kFamilies = {
      "checkpoint-state", "ckpt-symmetry", "determinism", "eventid",
      "hot-alloc",        "layering",      "strict-parse", "udc-order"};
  return kFamilies;
}

std::vector<AllowEntry> parseAllowlistFile(
    const std::string& path, std::vector<std::string>& errors) {
  std::vector<AllowEntry> out;
  std::ifstream in(path);
  if (!in) {
    errors.push_back("cannot open allowlist '" + path + "'");
    return out;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ss(t);
    AllowEntry e;
    ss >> e.rule >> e.path_suffix;
    std::getline(ss, e.reason);
    e.reason = trim(e.reason);
    if (e.rule.empty() || e.path_suffix.empty() || e.reason.empty()) {
      errors.push_back(path + ":" + std::to_string(lineno) +
                       ": allowlist entries are '<rule> <path-suffix> "
                       "<reason>' — reason is mandatory");
      continue;
    }
    out.push_back(e);
  }
  return out;
}

Report runLint(const Options& opt) {
  Report report;

  // Collect files (sorted for determinism). Restricted dirs (tools/,
  // bench/) are scanned for the determinism/strict-parse families only;
  // anything under a fixtures/ component is skipped — those trees seed
  // deliberate violations.
  std::vector<std::string> rel_paths;
  std::set<std::string> restricted;
  auto collect = [&](const std::string& dir, bool is_restricted) {
    const fs::path base = fs::path(opt.root) / dir;
    if (!fs::exists(base)) return;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp" && ext != ".cc")
        continue;
      const std::string rel =
          fs::relative(entry.path(), fs::path(opt.root)).generic_string();
      if (is_restricted) {
        if (rel.find("fixtures/") != std::string::npos) continue;
        if (std::find(rel_paths.begin(), rel_paths.end(), rel) !=
            rel_paths.end())
          continue;
        restricted.insert(rel);
      }
      rel_paths.push_back(rel);
    }
  };
  for (const std::string& dir : opt.scan_dirs) collect(dir, false);
  for (const std::string& dir : opt.restricted_scan_dirs)
    collect(dir, true);
  std::sort(rel_paths.begin(), rel_paths.end());
  rel_paths.erase(std::unique(rel_paths.begin(), rel_paths.end()),
                  rel_paths.end());

  std::map<std::string, FileData> files;
  for (const std::string& rel : rel_paths) {
    FileData f;
    f.rel_path = rel;
    f.restricted = restricted.count(rel) != 0;
    std::ifstream in(fs::path(opt.root) / rel, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    f.raw = ss.str();
    f.waivers = extractWaivers(scrub(f.raw, /*blank_comments=*/false),
                               report.findings, rel);
    f.scrubbed = scrub(f.raw);
    files.emplace(rel, std::move(f));
  }

  auto inPerCycleDir = [&](const std::string& rel) {
    for (const std::string& d : opt.per_cycle_dirs) {
      if (rel.rfind(d + "/", 0) == 0) return true;
    }
    return false;
  };

  std::set<std::string> all_unordered;
  for (const std::string& rel : rel_paths) {
    if (files.at(rel).restricted) continue;
    const std::set<std::string> names =
        unorderedNames(files.at(rel).scrubbed);
    all_unordered.insert(names.begin(), names.end());
  }

  std::vector<ClassInfo> classes;
  for (const std::string& rel : rel_paths) {
    FileData& f = files.at(rel);
    const LineIndex lines(f.scrubbed);
    applyTokenRules(opt, f, lines, determinismRules(), report.findings);
    applyTokenRules(opt, f, lines, strictParseRules(), report.findings);
    if (f.restricted) continue;
    if (inPerCycleDir(rel)) {
      applyTokenRules(opt, f, lines, eventIdRules(), report.findings);
      collectOutOfLineExemptRanges(f);
    }
    applyUnorderedOrderRule(opt, f, lines, all_unordered, report.findings);
    applyLayeringRule(opt, f, report.findings);
    scanClasses(f, lines, classes);
    if (inPerCycleDir(rel)) {
      applyTokenRules(opt, f, lines, hotAllocRules(), report.findings,
                      /*honor_exempt_ranges=*/true);
    }
  }

  std::vector<FileData*> file_list;
  file_list.reserve(files.size());
  for (auto& [rel, f] : files) file_list.push_back(&f);
  attachOutOfLineBodies(file_list, classes);
  applyCheckpointRule(opt, files, classes, report.findings,
                      report.stateful_classes);
  applySymmetryRule(opt, files, classes, report.findings, report.schemas);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return report;
}

std::string formatFindings(const Report& report) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

std::string formatSchema(const ClassSchema& schema) {
  std::ostringstream out;
  out << "# .mckpt field schema — ordered StateWriter ops of the "
         "saveState body.\n"
         "# Machine-written by `malec_lint --emit-schema`; regenerate "
         "(never hand-edit):\n"
         "#   build/malec_lint --root . --emit-schema tools/lint/schemas\n"
      << "class " << schema.class_name << "\n"
      << "source " << schema.file << "\n";
  for (const std::string& line : schema.lines) out << line << "\n";
  return out.str();
}

}  // namespace malec::lint
