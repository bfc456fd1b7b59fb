#pragma once
// Shared benchmark entry point: every bench binary funnels through
// quml_run_benchmarks() so results always carry the quml build type and a
// debug build can never silently become the recorded perf baseline again
// (PR 1's BENCH_*.json were all measured against an unoptimized tree).
//
// Note the distinction from Google Benchmark's own "library_build_type"
// context field: that reflects how *libbenchmark* was compiled (Debian ships
// it without NDEBUG, so it always says "debug"), not how quml was compiled.
// The authoritative stamp for the measured library is "quml_build_type";
// bench/run_benchmarks.sh validates it and normalizes the context.  Beside it
// sit "quml_native" (the QUML_NATIVE option: -march=native or not) and
// "quml_codegen_isa" (the vector extensions the compiler targeted), so a
// recorded number names the code generation it measured.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/build_info.hpp"

namespace quml::bench {

/// QUML_NATIVE as configured ("ON" / "OFF").
constexpr const char* native_option() noexcept {
#ifdef QUML_BENCH_NATIVE
  return "ON";
#else
  return "OFF";
#endif
}

/// The code-generation ISA extensions this binary was compiled for, e.g.
/// "avx512f,avx2,fma"; "baseline" when none of them.
inline std::string codegen_isa() {
  std::string isa;
  const auto add = [&isa](const char* name) {
    if (!isa.empty()) isa += ',';
    isa += name;
  };
#ifdef __AVX512F__
  add("avx512f");
#endif
#ifdef __AVX2__
  add("avx2");
#endif
#ifdef __FMA__
  add("fma");
#endif
  return isa.empty() ? "baseline" : isa;
}

/// Registers build-type context, refuses to measure a debug library (unless
/// QUML_BENCH_ALLOW_DEBUG=1 for local profiling), runs the binary's report
/// prelude (after the guard — preludes simulate and are expensive), then the
/// benchmarks.
inline int run(int argc, char** argv, void (*prelude)() = nullptr) {
  if (build_type()[0] == 'd' && std::getenv("QUML_BENCH_ALLOW_DEBUG") == nullptr) {
    std::fprintf(stderr,
                 "error: quml was compiled as a DEBUG build; benchmark numbers would be "
                 "meaningless as a perf baseline.\n"
                 "Rebuild with -DCMAKE_BUILD_TYPE=Release (cmake --preset release), or set "
                 "QUML_BENCH_ALLOW_DEBUG=1 to profile a debug tree anyway.\n");
    return 1;
  }
  if (prelude != nullptr) prelude();
  benchmark::AddCustomContext("quml_build_type", build_type());
  benchmark::AddCustomContext("quml_native", native_option());
  benchmark::AddCustomContext("quml_codegen_isa", codegen_isa());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace quml::bench
