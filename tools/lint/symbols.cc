#include "tools/lint/symbols.hh"

#include <algorithm>
#include <cctype>
#include <regex>

namespace khuzdul
{
namespace lint
{

// ---------------------------------------------------------------
// Text and path utilities.
// ---------------------------------------------------------------

std::string
normalizePath(std::string path)
{
    std::replace(path.begin(), path.end(), '\\', '/');
    while (path.rfind("./", 0) == 0)
        path.erase(0, 2);
    return path;
}

bool
pathHasDir(const std::string &path, const std::string &dir)
{
    const std::string needle = dir + "/";
    std::size_t pos = path.find(needle);
    while (pos != std::string::npos) {
        if (pos == 0 || path[pos - 1] == '/')
            return true;
        pos = path.find(needle, pos + 1);
    }
    return false;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
        == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".hpp")
        || endsWith(path, ".h");
}

bool
isSourcePath(const std::string &path)
{
    return isHeaderPath(path) || endsWith(path, ".cc")
        || endsWith(path, ".cpp") || endsWith(path, ".cxx");
}

bool
isModeledZone(const std::string &path)
{
    return pathHasDir(path, "src/core") || pathHasDir(path, "src/sim")
        || pathHasDir(path, "src/engines");
}

bool
isParallelRuntime(const std::string &path)
{
    return pathHasDir(path, "src/core/parallel");
}

bool
isServiceRuntime(const std::string &path)
{
    return pathHasDir(path, "src/core/service");
}

bool
isFabricImpl(const std::string &path)
{
    return pathHasDir(path, "src/sim")
        && (endsWith(path, "/fabric.cc") || endsWith(path, "/fabric.hh")
            || path == "fabric.cc" || path == "fabric.hh");
}

bool
isRecoveryPath(const std::string &path)
{
    const auto isFile = [&](const std::string &dir,
                            const std::string &stem) {
        return pathHasDir(path, dir)
            && (endsWith(path, "/" + stem + ".cc")
                || endsWith(path, "/" + stem + ".hh"));
    };
    return isFile("src/sim", "faults") || isFile("src/core", "provider")
        || isFile("src/core", "circulant")
        || pathHasDir(path, "src/core/steal")
        || pathHasDir(path, "src/core/recovery");
}

bool
isKernelTier(const std::string &path)
{
    return pathHasDir(path, "src/core/kernels");
}

std::string
sanitizeLine(const std::string &raw, bool &in_block_comment)
{
    std::string out(raw.size(), ' ');
    std::size_t i = 0;
    while (i < raw.size()) {
        if (in_block_comment) {
            if (raw[i] == '*' && i + 1 < raw.size()
                && raw[i + 1] == '/') {
                in_block_comment = false;
                i += 2;
                continue;
            }
            ++i;
            continue;
        }
        const char c = raw[i];
        if (c == '/' && i + 1 < raw.size()) {
            if (raw[i + 1] == '/')
                break; // rest of line is a comment
            if (raw[i + 1] == '*') {
                in_block_comment = true;
                i += 2;
                continue;
            }
        }
        if (c == '"' || c == '\'') {
            // Raw strings: skip R"( ... )" without custom delimiters.
            if (c == '"' && i > 0 && raw[i - 1] == 'R') {
                const std::size_t close = raw.find(")\"", i + 1);
                out[i] = '"';
                if (close == std::string::npos) {
                    i = raw.size();
                } else {
                    out[close + 1] = '"';
                    i = close + 2;
                }
                continue;
            }
            const char quote = c;
            out[i] = quote;
            ++i;
            while (i < raw.size()) {
                if (raw[i] == '\\') {
                    i += 2;
                    continue;
                }
                if (raw[i] == quote) {
                    out[i] = quote;
                    ++i;
                    break;
                }
                ++i;
            }
            continue;
        }
        out[i] = c;
        ++i;
    }
    while (!out.empty() && out.back() == ' ')
        out.pop_back();
    return out;
}

bool
isBlank(const std::string &s)
{
    return std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isspace(c) != 0;
    });
}

std::string
trimCopy(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

// ---------------------------------------------------------------
// Fact patterns (shared with the analyzer's token rules).
// ---------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>> &
factPatterns()
{
    static const std::vector<std::pair<std::string, std::string>> table
        = {
            {"wall-clock",
             R"(\b(steady_clock|system_clock|high_resolution_clock|clock_gettime|gettimeofday|timespec_get)\b)"},
            {"prng",
             R"(\b(random_device|mt19937(_64)?|default_random_engine|minstd_rand0?|ranlux(24|48)(_base)?|knuth_b|srand|drand48|lrand48|mrand48)\b|\brand\s*\(|#\s*include\s*<random>)"},
            {"unordered-iter",
             R"(\bunordered_(map|set|multimap|multiset)\b)"},
            {"thread-primitive",
             R"(\bstd\s*::\s*(thread|jthread|this_thread|atomic\w*|mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable(_any)?|lock_guard|unique_lock|shared_lock|scoped_lock|future|shared_future|promise|async|counting_semaphore|binary_semaphore|barrier|latch|stop_token|call_once|once_flag)\b|\bthread\s*::\s*id\b|#\s*include\s*<(thread|atomic|mutex|shared_mutex|condition_variable|future|semaphore|barrier|latch|stop_token)>)"},
            {"fabric-mutation",
             R"(\b(recordTransfer|mergeTally|setByteCap)\s*\(|\bfabric_?\s*(\.|->)\s*reset\s*\()"},
            {"fault-modeled-state",
             R"(\b(hostWallNs|elapsedNs|elapsedSeconds|Timer)\b|\btimer\.hh\b)"},
        };
    return table;
}

// ---------------------------------------------------------------
// Extraction state machine.
// ---------------------------------------------------------------

namespace
{

struct Scope
{
    enum Kind
    {
        Namespace,
        Class,
        Function,
        InitList,
        Other,
    };
    Kind kind = Other;
    std::string name;
    int fn = -1; ///< index into program.functions for Function scopes
};

/** Declaration text accumulated since the last `;`, `{` or `}`,
 *  with a parallel per-character source-line array so regex match
 *  positions map back to lines. */
struct Pending
{
    std::string text;
    std::vector<int> lines;

    void
    add(char c, int line)
    {
        text.push_back(c);
        lines.push_back(line);
    }

    void
    clear()
    {
        text.clear();
        lines.clear();
    }
};

/** Remove `template <...>` parameter lists (angle-balanced, paren
 *  aware) so template headers never confuse classification. */
Pending
stripTemplates(const Pending &in)
{
    Pending out;
    std::size_t i = 0;
    while (i < in.text.size()) {
        if (in.text.compare(i, 8, "template") == 0
            && (i == 0
                || !(std::isalnum(static_cast<unsigned char>(
                         in.text[i - 1]))
                     || in.text[i - 1] == '_'))
            && (i + 8 == in.text.size()
                || !(std::isalnum(static_cast<unsigned char>(
                         in.text[i + 8]))
                     || in.text[i + 8] == '_'))) {
            std::size_t j = i + 8;
            while (j < in.text.size()
                   && std::isspace(
                       static_cast<unsigned char>(in.text[j])))
                ++j;
            if (j < in.text.size() && in.text[j] == '<') {
                int angle = 0;
                int paren = 0;
                while (j < in.text.size()) {
                    const char c = in.text[j];
                    if (c == '(')
                        ++paren;
                    else if (c == ')')
                        --paren;
                    else if (paren == 0 && c == '<')
                        ++angle;
                    else if (paren == 0 && c == '>' && --angle == 0) {
                        ++j;
                        break;
                    }
                    ++j;
                }
                i = j;
                continue;
            }
        }
        out.add(in.text[i], in.lines[i]);
        ++i;
    }
    return out;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0
        || c == '_';
}

/** Words that can never be a function name's last component. */
bool
isReservedWord(const std::string &w)
{
    static const std::set<std::string> words = {
        "if",       "for",      "while",    "switch",   "return",
        "sizeof",   "alignof",  "alignas",  "decltype", "catch",
        "new",      "delete",   "throw",    "void",     "int",
        "bool",     "char",     "short",    "long",     "float",
        "double",   "unsigned", "signed",   "auto",     "const",
        "constexpr", "static",  "inline",   "explicit", "virtual",
        "typename", "noexcept", "defined",  "assert",   "case",
        "do",       "else",     "goto",     "not",      "and",
        "or",       "static_assert", "co_await", "co_return",
        "co_yield", "operator",
    };
    return words.count(w) != 0;
}

std::string
lastComponent(const std::string &qualified)
{
    const std::size_t pos = qualified.rfind("::");
    return pos == std::string::npos ? qualified
                                    : qualified.substr(pos + 2);
}

std::string
stripSpaces(const std::string &s)
{
    std::string out;
    for (const char c : s)
        if (!std::isspace(static_cast<unsigned char>(c)))
            out.push_back(c);
    return out;
}

/** What a `{` at declaration scope opens. */
struct Classified
{
    Scope::Kind kind = Scope::Other;
    std::string name; ///< namespace/class/function name
    int nameLine = 0;
};

const std::regex &
nameRegex()
{
    static const std::regex re(
        R"((?:~?[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)");
    return re;
}

/** `operator` with its symbol (e.g. `X::operator==`, `operator()`). */
const std::regex &
operatorRegex()
{
    static const std::regex re(
        R"((?:[A-Za-z_]\w*\s*::\s*)*operator\s*(\(\s*\)|\[\s*\]|[^\s(]+))");
    return re;
}

bool
hasTopLevelEquals(const std::string &text)
{
    int paren = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(' || c == '[')
            ++paren;
        else if (c == ')' || c == ']')
            --paren;
        else if (c == '=' && paren == 0) {
            // Not ==, !=, <=, >=, +=, ... and not operator=.
            const char prev = i > 0 ? text[i - 1] : ' ';
            const char next = i + 1 < text.size() ? text[i + 1] : ' ';
            if (prev == '=' || next == '=' || prev == '!' || prev == '<'
                || prev == '>' || prev == '+' || prev == '-'
                || prev == '*' || prev == '/' || prev == '%'
                || prev == '&' || prev == '|' || prev == '^')
                continue;
            // operator= definitions: `=` directly after `operator`.
            if (i >= 8 && text.compare(i - 8, 8, "operator") == 0)
                continue;
            return true;
        }
    }
    return false;
}

Classified
classifyPending(const Pending &raw)
{
    Classified result;
    const Pending p = stripTemplates(raw);
    const std::string &text = p.text;
    if (isBlank(text))
        return result;

    // namespace?
    {
        static const std::regex ns(
            R"(^\s*(inline\s+)?namespace\b([\s\w:]*)$)");
        std::smatch m;
        if (std::regex_match(text, m, ns)) {
            result.kind = Scope::Namespace;
            result.name = trimCopy(m[2].str());
            return result;
        }
    }

    // enum bodies hold no functions.
    {
        static const std::regex en(R"(\benum\b)");
        if (std::regex_search(text, en))
            return result;
    }

    // Initializer (array/aggregate/lambda at declaration scope).
    if (hasTopLevelEquals(text))
        return result;

    // class/struct/union definition: identifier after the last
    // class keyword, not followed by `(` (which would make the
    // keyword part of a function signature's parameter).
    {
        static const std::regex cls(
            R"(\b(class|struct|union)\s+(\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*(\s*::\s*[A-Za-z_]\w*)*))");
        std::sregex_iterator it(text.begin(), text.end(), cls), end;
        std::smatch last;
        for (; it != end; ++it)
            last = *it;
        if (!last.empty()) {
            const std::size_t after
                = static_cast<std::size_t>(last.position(0))
                + last.length(0);
            if (text.find('(', after) == std::string::npos) {
                result.kind = Scope::Class;
                result.name = stripSpaces(last[3].str());
                result.nameLine
                    = p.lines[static_cast<std::size_t>(last.position(3))];
                return result;
            }
        }
    }

    // Function definition: the first `name(` whose name is not a
    // reserved word, or an operator.
    std::string name;
    std::size_t namePos = std::string::npos;
    {
        static const std::regex op(R"(\boperator\b)");
        if (std::regex_search(text, op)) {
            std::smatch m;
            if (std::regex_search(text, m, operatorRegex())) {
                name = stripSpaces(m[0].str());
                namePos = static_cast<std::size_t>(m.position(0));
            }
        }
    }
    if (name.empty()) {
        std::sregex_iterator it(text.begin(), text.end(), nameRegex()),
            end;
        for (; it != end; ++it) {
            const std::size_t pos
                = static_cast<std::size_t>(it->position(0));
            std::size_t after = pos + it->length(0);
            while (after < text.size()
                   && std::isspace(
                       static_cast<unsigned char>(text[after])))
                ++after;
            if (after >= text.size() || text[after] != '(')
                continue;
            const std::string candidate = stripSpaces(it->str());
            if (isReservedWord(lastComponent(candidate)))
                continue;
            name = candidate;
            namePos = pos;
            break;
        }
    }
    if (name.empty())
        return result;

    // Distinguish a function body `{` from a brace-initialized
    // member in a constructor initializer list: a body brace is
    // preceded by `)` or a trailing qualifier.
    std::string tail = trimCopy(text);
    bool body = false;
    if (!tail.empty()) {
        if (tail.back() == ')') {
            body = true;
        } else {
            std::size_t e = tail.size();
            while (e > 0 && isIdentChar(tail[e - 1]))
                --e;
            const std::string lastWord = tail.substr(e);
            static const std::set<std::string> qualifiers
                = {"const",    "noexcept", "override",
                   "final",    "try",      "mutable"};
            if (qualifiers.count(lastWord) != 0)
                body = true;
        }
    }
    if (!body) {
        // Only a constructor initializer list can put a brace here.
        const std::size_t lastClose = text.rfind(')');
        if (lastClose != std::string::npos
            && text.find(':', lastClose) != std::string::npos) {
            result.kind = Scope::InitList;
            return result;
        }
        body = true; // be permissive: treat as a body
    }

    result.kind = Scope::Function;
    result.name = name;
    result.nameLine = p.lines[namePos];
    return result;
}

/** Call-shaped tokens: possibly qualified identifier + `(`. */
const std::regex &
callRegex()
{
    static const std::regex re(
        R"(((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\()");
    return re;
}

struct CompiledFact
{
    std::string fact;
    std::regex pattern;
};

const std::vector<CompiledFact> &
compiledFacts()
{
    static const std::vector<CompiledFact> table = [] {
        std::vector<CompiledFact> out;
        for (const auto &[fact, source] : factPatterns())
            out.push_back({fact, std::regex(source)});
        return out;
    }();
    return table;
}

bool
isDirectiveLine(const std::string &code)
{
    const std::string t = trimCopy(code);
    return !t.empty() && t[0] == '#';
}

} // namespace

void
extractFile(Program &program, SourceFile file,
            const std::vector<std::string> &rawLines)
{
    // Includes come from raw lines: sanitization blanks the quoted
    // path.
    static const std::regex inc(R"rx(^\s*#\s*include\s*"([^"]+)")rx");
    for (std::size_t i = 0; i < rawLines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(rawLines[i], m, inc))
            file.includes.push_back(
                {normalizePath(m[1].str()), static_cast<int>(i + 1)});
    }

    const std::vector<std::string> &code = file.codeLines;
    std::vector<Scope> stack;
    Pending pending;
    std::vector<int> lineOwner(code.size(), -1);
    const int fnBase = static_cast<int>(program.functions.size());
    int activeFn = -1;
    int fnDepth = 0; ///< nested brace depth inside the active body

    const auto currentQualifier = [&]() {
        std::string q;
        for (const Scope &s : stack) {
            if ((s.kind != Scope::Namespace && s.kind != Scope::Class)
                || s.name.empty())
                continue;
            if (!q.empty())
                q += "::";
            q += s.name;
        }
        return q;
    };
    const auto inAnonNamespace = [&]() {
        for (const Scope &s : stack)
            if (s.kind == Scope::Namespace && s.name.empty())
                return true;
        return false;
    };

    bool prevContinues = false;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const int lineNo = static_cast<int>(i + 1);
        const bool directive
            = prevContinues || isDirectiveLine(code[i]);
        prevContinues = !rawLines.empty() && i < rawLines.size()
            && !rawLines[i].empty() && rawLines[i].back() == '\\'
            && (directive || prevContinues);
        if (directive)
            continue;

        if (activeFn >= 0)
            lineOwner[i] = activeFn;

        for (std::size_t c = 0; c < code[i].size(); ++c) {
            const char ch = code[i][c];
            if (activeFn >= 0) {
                // Inside a function body: only track nesting.
                if (ch == '{') {
                    ++fnDepth;
                } else if (ch == '}') {
                    if (--fnDepth == 0) {
                        program.functions[static_cast<std::size_t>(
                                              activeFn)]
                            .bodyEnd = lineNo;
                        stack.pop_back();
                        activeFn = -1;
                        pending.clear();
                    }
                }
                continue;
            }
            if (ch == ';') {
                pending.clear();
                continue;
            }
            if (ch == '{') {
                const Classified what = classifyPending(pending);
                Scope scope;
                scope.kind = what.kind;
                scope.name = what.name;
                if (what.kind == Scope::InitList) {
                    // Keep accumulating the constructor signature.
                    stack.push_back(scope);
                    continue;
                }
                if (what.kind == Scope::Function) {
                    FunctionDef fn;
                    const std::string qual = currentQualifier();
                    fn.qualified = qual.empty()
                        ? what.name
                        : qual + "::" + what.name;
                    fn.file = file.path;
                    fn.line = what.nameLine;
                    fn.bodyBegin = lineNo;
                    fn.bodyEnd = lineNo;
                    fn.inClass = !stack.empty()
                        && stack.back().kind == Scope::Class;
                    fn.anonNamespace = inAnonNamespace();
                    activeFn = static_cast<int>(
                        program.functions.size());
                    fnDepth = 1;
                    scope.fn = activeFn;
                    program.functions.push_back(std::move(fn));
                    lineOwner[i] = activeFn;
                } else if (what.kind == Scope::Class) {
                    const std::string qual = currentQualifier();
                    const std::string full = qual.empty()
                        ? what.name
                        : qual + "::" + what.name;
                    program.classQualified.insert(full);
                    program.classNames.insert(
                        lastComponent(what.name));
                }
                stack.push_back(scope);
                pending.clear();
                continue;
            }
            if (ch == '}') {
                if (!stack.empty()) {
                    const bool initList
                        = stack.back().kind == Scope::InitList;
                    stack.pop_back();
                    if (initList)
                        continue; // signature continues after `}`
                }
                pending.clear();
                continue;
            }
            pending.add(ch, lineNo);
        }
        // A newline separates tokens just like a space does; without
        // this, `void\nRunStats::accumulate(...)` would glue the
        // return type onto the qualified name.
        if (activeFn < 0)
            pending.add(' ', lineNo);
    }

    // Close any function left open by unbalanced input.
    if (activeFn >= 0)
        program.functions[static_cast<std::size_t>(activeFn)].bodyEnd
            = static_cast<int>(code.size());

    // Harvest call and fact sites from owned lines.
    for (std::size_t i = 0; i < code.size(); ++i) {
        const int owner = lineOwner[i];
        if (owner < fnBase)
            continue;
        FunctionDef &fn
            = program.functions[static_cast<std::size_t>(owner)];
        const std::string &line = code[i];
        const int lineNo = static_cast<int>(i + 1);
        std::sregex_iterator it(line.begin(), line.end(), callRegex()),
            end;
        for (; it != end; ++it) {
            const std::string token = stripSpaces(it->str(1));
            if (isReservedWord(lastComponent(token)))
                continue;
            std::size_t before
                = static_cast<std::size_t>(it->position(1));
            bool member = false;
            bool skip = false;
            if (before > 0) {
                std::size_t b = before;
                while (b > 0
                       && std::isspace(
                           static_cast<unsigned char>(line[b - 1])))
                    --b;
                if (b > 0) {
                    const char prev = line[b - 1];
                    if (prev == '.') {
                        member = true;
                    } else if (prev == '>' && b > 1
                               && line[b - 2] == '-') {
                        member = true;
                    } else if (prev == '~') {
                        skip = true; // destructor call
                    }
                }
            }
            if (!skip)
                fn.calls.push_back({token, lineNo, member});
        }
        for (const CompiledFact &f : compiledFacts())
            if (std::regex_search(line, f.pattern))
                fn.facts.push_back({f.fact, lineNo});
    }

    program.files.push_back(std::move(file));
}

void
finalizeProgram(Program &program)
{
    std::sort(program.files.begin(), program.files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    std::sort(program.functions.begin(), program.functions.end(),
              [](const FunctionDef &a, const FunctionDef &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.qualified < b.qualified;
              });
    for (FunctionDef &fn : program.functions) {
        if (fn.inClass) {
            fn.method = true;
            continue;
        }
        const std::size_t pos = fn.qualified.rfind("::");
        if (pos == std::string::npos)
            continue;
        const std::string parent = fn.qualified.substr(0, pos);
        fn.method = program.classQualified.count(parent) != 0
            || program.classNames.count(lastComponent(parent)) != 0;
    }
}

} // namespace lint
} // namespace khuzdul
