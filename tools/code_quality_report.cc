// Section 3.5 — "Code Quality."
//
// "in Graphalytics, the code for the reference implementations is
// accompanied by code quality reports, such as code complexity, bugs
// discovered through static analysis, etc."
//
// This tool is the SonarQube stand-in: it statically scans the repository's
// C++ sources and emits a per-module quality report — lines of code,
// comment density, function-length distribution, a cyclomatic-complexity
// proxy (decision-point count), and regression-smell counters (TODO/FIXME,
// raw new/delete, NOLINT). The sec35 bench wraps it so the report is
// regenerated with every benchmark run, mirroring the paper's CI setup.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct FileStats {
  size_t code_lines = 0;
  size_t comment_lines = 0;
  size_t blank_lines = 0;
  size_t decision_points = 0;  // if/for/while/case/&&/||/?
  size_t functions = 0;
  size_t longest_function = 0;
  size_t todos = 0;
  size_t raw_new_delete = 0;
};

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

size_t CountOccurrences(const std::string& line, const std::string& token) {
  size_t count = 0;
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    ++count;
    pos += token.size();
  }
  return count;
}

FileStats AnalyzeFile(const fs::path& path) {
  FileStats stats;
  std::ifstream in(path);
  std::string line;
  bool in_block_comment = false;
  size_t current_function_lines = 0;
  int brace_depth = 0;
  int function_open_depth = 0;
  bool in_function = false;
  while (std::getline(in, line)) {
    // Trim left.
    size_t first = line.find_first_not_of(" \t");
    std::string trimmed =
        first == std::string::npos ? "" : line.substr(first);
    if (trimmed.empty()) {
      ++stats.blank_lines;
      continue;
    }
    if (in_block_comment) {
      ++stats.comment_lines;
      if (Contains(trimmed, "*/")) in_block_comment = false;
      continue;
    }
    if (trimmed.rfind("//", 0) == 0) {
      ++stats.comment_lines;
      if (Contains(trimmed, "TODO") || Contains(trimmed, "FIXME")) {
        ++stats.todos;
      }
      continue;
    }
    if (trimmed.rfind("/*", 0) == 0) {
      ++stats.comment_lines;
      if (!Contains(trimmed, "*/")) in_block_comment = true;
      continue;
    }
    ++stats.code_lines;
    for (const char* kw : {"if (", "for (", "while (", "case ", "switch ("}) {
      stats.decision_points += CountOccurrences(trimmed, kw);
    }
    stats.decision_points += CountOccurrences(trimmed, "&&");
    stats.decision_points += CountOccurrences(trimmed, "||");
    stats.decision_points += CountOccurrences(trimmed, " ? ");
    if (Contains(trimmed, "new ") || Contains(trimmed, "delete ")) {
      ++stats.raw_new_delete;
    }
    // Rough function tracking: a '{' on a line that also closes a
    // parameter list (contains ')') opens a function body at whatever
    // nesting depth (free function, member, lambda); the body ends when
    // the brace depth returns to the opening level.
    bool line_has_paren = Contains(line, ")");
    for (char c : trimmed) {
      if (c == '{') {
        if (!in_function && line_has_paren && !Contains(trimmed, "= {")) {
          in_function = true;
          function_open_depth = brace_depth;
          current_function_lines = 0;
          ++stats.functions;
        }
        ++brace_depth;
      } else if (c == '}') {
        --brace_depth;
        if (brace_depth < 0) brace_depth = 0;
        if (in_function && brace_depth <= function_open_depth) {
          stats.longest_function =
              std::max(stats.longest_function, current_function_lines);
          in_function = false;
        }
      }
    }
    if (in_function) ++current_function_lines;
  }
  return stats;
}

std::string ModuleOf(const fs::path& path, const fs::path& root) {
  fs::path rel = fs::relative(path, root);
  auto it = rel.begin();
  if (it == rel.end()) return "?";
  std::string top = it->string();
  if (top == "src" && ++it != rel.end()) return "src/" + it->string();
  return top;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = argc > 1 ? fs::path(argv[1]) : fs::current_path();
  std::map<std::string, FileStats> modules;
  size_t files = 0;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory()) {
      // Build trees (any directory CMake configured, whatever its name)
      // and hidden directories hold generated or tool files, not source.
      if (entry.path().filename().string().starts_with(".") ||
          fs::exists(entry.path() / "CMakeCache.txt")) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h" && ext != ".cpp") continue;
    FileStats fstats = AnalyzeFile(entry.path());
    FileStats& m = modules[ModuleOf(entry.path(), root)];
    m.code_lines += fstats.code_lines;
    m.comment_lines += fstats.comment_lines;
    m.blank_lines += fstats.blank_lines;
    m.decision_points += fstats.decision_points;
    m.functions += fstats.functions;
    m.longest_function = std::max(m.longest_function, fstats.longest_function);
    m.todos += fstats.todos;
    m.raw_new_delete += fstats.raw_new_delete;
    ++files;
  }

  std::printf("code quality report (%zu files under %s)\n", files,
              root.string().c_str());
  std::printf("%-18s %8s %8s %8s %8s %10s %8s %6s\n", "module", "code",
              "comment", "cmt%", "funcs", "complex/f", "maxfn", "todo");
  std::printf("%s\n", std::string(84, '-').c_str());
  FileStats total;
  for (const auto& [module, m] : modules) {
    double comment_pct =
        m.code_lines + m.comment_lines > 0
            ? 100.0 * static_cast<double>(m.comment_lines) /
                  static_cast<double>(m.code_lines + m.comment_lines)
            : 0.0;
    double complexity_per_function =
        m.functions > 0 ? static_cast<double>(m.decision_points) /
                              static_cast<double>(m.functions)
                        : 0.0;
    std::printf("%-18s %8zu %8zu %7.1f%% %8zu %10.1f %8zu %6zu\n",
                module.c_str(), m.code_lines, m.comment_lines, comment_pct,
                m.functions, complexity_per_function, m.longest_function,
                m.todos);
    total.code_lines += m.code_lines;
    total.comment_lines += m.comment_lines;
    total.decision_points += m.decision_points;
    total.functions += m.functions;
    total.todos += m.todos;
    total.raw_new_delete += m.raw_new_delete;
  }
  std::printf("%s\n", std::string(84, '-').c_str());
  std::printf("%-18s %8zu %8zu %7.1f%% %8zu %10.1f %8s %6zu\n", "TOTAL",
              total.code_lines, total.comment_lines,
              100.0 * static_cast<double>(total.comment_lines) /
                  static_cast<double>(total.code_lines + total.comment_lines),
              total.functions,
              total.functions > 0
                  ? static_cast<double>(total.decision_points) /
                        static_cast<double>(total.functions)
                  : 0.0,
              "-", total.todos);
  std::printf("\nregression smells: TODO/FIXME=%zu raw new/delete=%zu\n",
              total.todos, total.raw_new_delete);
  return 0;
}
