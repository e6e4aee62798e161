#include "vgpu/tuned.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace fastpso::vgpu::tuned {
namespace {

// Process-wide state, FASTPSO_FAST_PATH-style: the vgpu is single-threaded
// by contract, so plain statics suffice.
bool initial_enabled() {
  const char* env = std::getenv("FASTPSO_TUNED");
  return env != nullptr && std::string_view(env) == "1";
}

std::map<std::string, int>& store() {
  static std::map<std::string, int> s;
  return s;
}

/// Loads FASTPSO_TUNED_TABLE once, before the first lookup resolves. Only
/// attempted when the env toggle was set at startup — programmatic users
/// (tests, the tuner's probes) install values explicitly.
void startup_load_once() {
  static const bool loaded = [] {
    if (initial_enabled()) {
      if (const char* path = std::getenv("FASTPSO_TUNED_TABLE")) {
        load_file(path);
      }
    }
    return true;
  }();
  (void)loaded;
}

bool g_enabled = initial_enabled();

}  // namespace

bool enabled() {
  startup_load_once();
  return g_enabled;
}

void set_enabled(bool enable) { g_enabled = enable; }

int lookup(std::string_view key, int fallback) {
  if (!enabled()) {
    return fallback;
  }
  const auto& s = store();
  // Transparent lookup without materializing a std::string on the miss
  // path would need a C++20 heterogeneous comparator; keys are short and
  // lookups sit on launch-shape decisions (not per element), so the copy
  // is fine.
  const auto it = s.find(std::string(key));
  return it == s.end() ? fallback : it->second;
}

void set_value(const std::string& key, int value) { store()[key] = value; }

void clear_values() { store().clear(); }

void install(std::map<std::string, int> values) { store() = std::move(values); }

const std::map<std::string, int>& values() { return store(); }

bool load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Minimal scanner for the table JSON's flat `"store": { "key": int, ... }`
  // section (the exact format tune::TunedTable::save emits — see
  // src/tune/table.cpp; the two are pinned together by test_tune's
  // round-trip test).
  const std::string marker = "\"store\"";
  std::size_t pos = text.find(marker);
  if (pos == std::string::npos) {
    return false;
  }
  pos = text.find('{', pos);
  if (pos == std::string::npos) {
    return false;
  }
  ++pos;
  bool any = false;
  while (pos < text.size()) {
    while (pos < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == ',')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] == '}') {
      break;
    }
    if (text[pos] != '"') {
      return any;  // malformed; keep what parsed cleanly
    }
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) {
      return any;
    }
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    pos = text.find(':', key_end);
    if (pos == std::string::npos) {
      return any;
    }
    ++pos;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
    std::size_t digits = pos;
    if (digits < text.size() && text[digits] == '-') {
      ++digits;
    }
    while (digits < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[digits])) != 0) {
      ++digits;
    }
    if (digits == pos) {
      return any;
    }
    store()[key] = std::atoi(text.substr(pos, digits - pos).c_str());
    any = true;
    pos = digits;
  }
  return any;
}

int elements_bucket(std::int64_t elements) {
  if (elements <= 0) {
    return 0;
  }
  int bucket = 0;
  while (elements > 1 && bucket < 62) {
    elements >>= 1;
    ++bucket;
  }
  return bucket;
}

std::string shape_key(std::string_view kernel, std::int64_t elements) {
  std::string key(kernel);
  key += "/b";
  key += std::to_string(elements_bucket(elements));
  return key;
}

ScopedTuning::ScopedTuning() {
  // Snapshot after the startup table load: a scope opened before the first
  // lookup must neither drop FASTPSO_TUNED_TABLE's entries on exit nor have
  // them merged over the values set inside it.
  startup_load_once();
  saved_values_ = store();
  saved_enabled_ = g_enabled;
}

ScopedTuning::~ScopedTuning() {
  store() = std::move(saved_values_);
  g_enabled = saved_enabled_;
}

}  // namespace fastpso::vgpu::tuned
