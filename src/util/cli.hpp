#pragma once

// Tiny command-line flag parser for the example binaries and benches.
//
//   util::Cli cli(argc, argv);
//   const int steps = cli.get_int("steps", 100, /*min_value=*/1);
//   const std::string mode = cli.get_string("engine", "optimus");
//   cli.finish();  // answers --help, rejects unknown flags
//
// Flags are written --name=value or --name value. Boolean flags accept bare
// --name as true.
//
// A bad command line never throws: an argument that is not a flag, a value
// that is not a number (or is below its minimum), an unknown flag and --help
// all print a message and the usage line to stderr and exit with status 2.
// The usage line lists the flags read so far, so finish() prints them all.

#include <climits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace optimus::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  int get_int(const std::string& name, int default_value, int min_value = INT_MIN);
  long long get_i64(const std::string& name, long long default_value);
  double get_double(const std::string& name, double default_value);
  std::string get_string(const std::string& name, const std::string& default_value);
  bool get_bool(const std::string& name, bool default_value);

  /// True if the flag appeared on the command line at all.
  bool has(const std::string& name) const;

  /// Call after the last get_*: exits 2 with the usage line on --help or on
  /// any supplied flag that was never read (catches typos).
  void finish() const;

 private:
  std::optional<std::string> raw(const std::string& name, const std::string& default_text);
  long long parse_integer(const std::string& name, const std::string& text) const;
  /// Prints `message` and the usage line to stderr, then exits 2. Before
  /// finish() the usage line holds only the flags read so far.
  [[noreturn]] void fail(const std::string& message, bool all_flags = false) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  std::vector<std::pair<std::string, std::string>> known_;  // name, default, in read order
  std::string program_;
};

}  // namespace optimus::util
