#!/usr/bin/env python3
"""Self-test for tools/lint/qmcxx_lint.py.

Every rule gets a seeded-violation fixture proving it fires, a negative
fixture proving its scoping (directory include/exclude lists) holds, and
the suppression syntax is exercised in all three forms (same line, line
above, whole file).  The final test runs the linter over the real tree
and requires it to be clean, so a contract regression fails CTest even
if nobody runs the linter by hand.

Fixtures are written into a temporary directory and the module's
REPO_ROOT is pointed there, so directory-scoped rules see the same
relative paths ("src/wavefunction/...") they see in the real repo.
"""

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_PATH = os.path.join(REPO_ROOT, "tools", "lint", "qmcxx_lint.py")


def load_linter():
    """Fresh module instance per test so REPO_ROOT patching can't leak."""
    spec = importlib.util.spec_from_file_location("qmcxx_lint_under_test", LINT_PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclass decorators resolve through sys.modules
    spec.loader.exec_module(mod)
    return mod


class LintFixtureCase(unittest.TestCase):
    def setUp(self):
        self.lint = load_linter()
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.lint.REPO_ROOT = self.tmp.name

    def write(self, relpath, text):
        path = os.path.join(self.tmp.name, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def run_lint(self, *paths):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.lint.main(list(paths))
        return code, out.getvalue()

    def assert_fires(self, rule, relpath, text):
        self.write(relpath, text)
        code, out = self.run_lint(relpath)
        self.assertEqual(code, 1, f"{rule} should fire on {relpath}:\n{out}")
        self.assertIn(f"[{rule}]", out)

    def assert_clean(self, relpath, text):
        self.write(relpath, text)
        code, out = self.run_lint(relpath)
        self.assertEqual(code, 0, f"expected clean on {relpath}:\n{out}")


class TestRngOutsideCore(LintFixtureCase):
    BAD = "#include <random>\nstd::mt19937 gen(42);\n"

    def test_fires_on_std_engine(self):
        self.assert_fires("rng-outside-core", "src/drivers/bad_rng.cpp", self.BAD)

    def test_fires_on_libc_rand(self):
        self.assert_fires("rng-outside-core", "src/drivers/bad_rand.cpp",
                          "int f() { return rand(); }\n")

    def test_core_headers_are_exempt(self):
        self.assert_clean("src/numerics/rng.h", self.BAD)
        self.assert_clean("src/concurrency/rng_streams.h", self.BAD)


class TestAosInHotPath(LintFixtureCase):
    BAD = "double f(P& p) { return p.positions()[0][0] + p.pos(1)[2]; }\n"

    def test_fires_in_wavefunction(self):
        self.assert_fires("aos-in-hot-path", "src/wavefunction/bad_aos.h", self.BAD)

    def test_fires_in_hamiltonian(self):
        self.assert_fires("aos-in-hot-path", "src/hamiltonian/bad_aos.h", self.BAD)

    def test_cold_directories_are_out_of_scope(self):
        self.assert_clean("src/drivers/ok_aos.h", self.BAD)
        self.assert_clean("tests/ok_aos.cpp", self.BAD)


class TestChronoOutsideInstrument(LintFixtureCase):
    BAD = "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n"

    def test_fires_outside_instrument(self):
        self.assert_fires("chrono-outside-instrument", "src/drivers/bad_clock.cpp", self.BAD)

    def test_fires_on_include_alone(self):
        self.assert_fires("chrono-outside-instrument", "bench/bad_clock.cpp",
                          "#include <chrono>\n")

    def test_instrument_is_exempt(self):
        self.assert_clean("src/instrument/stopwatch2.h", self.BAD)


class TestCoutInSrc(LintFixtureCase):
    BAD = '#include <iostream>\nvoid f() { std::cout << "x"; }\n'

    def test_fires_in_src(self):
        self.assert_fires("cout-in-src", "src/drivers/bad_cout.cpp", self.BAD)

    def test_examples_may_print(self):
        self.assert_clean("examples/ok_cout.cpp", self.BAD)


class TestIoOutsideSnapshot(LintFixtureCase):
    BAD = ('#include <fstream>\n'
           'void f() { std::ofstream out("x.bin", std::ios::binary); }\n')

    def test_fires_in_src(self):
        self.assert_fires("io-outside-snapshot", "src/drivers/bad_io.cpp", self.BAD)

    def test_fires_in_examples(self):
        self.assert_fires("io-outside-snapshot", "examples/bad_io.cpp", self.BAD)

    def test_fires_on_cstdio_file_api(self):
        self.assert_fires("io-outside-snapshot", "src/drivers/bad_fopen.cpp",
                          'void f() { fopen("x", "w"); }\n')
        self.assert_fires("io-outside-snapshot", "src/drivers/bad_fwrite.cpp",
                          "void f(FILE* fp, char* b) { fwrite(b, 1, 4, fp); }\n")

    def test_io_subsystem_is_exempt(self):
        self.assert_clean("src/io/snapshot2.cpp", self.BAD)
        self.assert_clean("src/instrument/report2.cpp", self.BAD)

    def test_bench_and_tests_are_out_of_scope(self):
        self.assert_clean("bench/ok_io.cpp", self.BAD)
        self.assert_clean("tests/ok_io.cpp", self.BAD)

    def test_suppression_works(self):
        self.assert_clean(
            "src/drivers/ok_io_allowed.cpp",
            "// qmcxx-lint: allow(io-outside-snapshot)\n"
            'void f() { fopen("x", "w"); }\n')


class TestDoubleInTRTemplate(LintFixtureCase):
    def test_fires_on_bare_local(self):
        self.assert_fires(
            "double-in-tr-template", "src/wavefunction/bad_tr.h",
            "template<typename TR>\n"
            "struct A {\n"
            "  void f() {\n"
            "    double acc = 0;\n"
            "  }\n"
            "};\n")

    def test_full_prec_real_is_the_fix(self):
        self.assert_clean(
            "src/wavefunction/ok_tr.h",
            "template<typename TR>\n"
            "struct A {\n"
            "  void f() {\n"
            "    FullPrecReal acc = 0;\n"
            "    TR x = 0;\n"
            "  }\n"
            "};\n")

    def test_non_tr_template_is_out_of_scope(self):
        self.assert_clean(
            "src/wavefunction/ok_other_param.h",
            "template<typename T>\n"
            "struct A {\n"
            "  void f() {\n"
            "    double acc = 0;\n"
            "  }\n"
            "};\n")

    def test_double_after_scope_closes_is_clean(self):
        self.assert_clean(
            "src/wavefunction/ok_after.h",
            "template<typename TR>\n"
            "struct A {};\n"
            "inline void g() {\n"
            "  double fine = 1.0;\n"
            "}\n")


class TestScalarSpoInCrowdPath(LintFixtureCase):
    BAD = ("struct S {\n"
           "  void mw_evaluate_vgl(const Pos* r, int nw, Batch& out) {\n"
           "    for (int iw = 0; iw < nw; ++iw)\n"
           "      evaluate_vgl(r[iw], out.psi.row(iw), dpsi, out.d2.row(iw));\n"
           "  }\n"
           "};\n")

    def test_fires_on_scalar_loop_in_mw_method(self):
        self.assert_fires("scalar-spo-in-crowd-path", "src/wavefunction/bad_mw.h", self.BAD)

    def test_fires_on_evaluate_v_too(self):
        self.assert_fires(
            "scalar-spo-in-crowd-path", "src/wavefunction/bad_mw_v.h",
            "struct S {\n"
            "  void mw_evaluate_v(const Pos* r, int nr, TR* psi, std::size_t stride) {\n"
            "    backend_->evaluate_v(ur, psi);\n"
            "  }\n"
            "};\n")

    def test_batched_calls_do_not_fire(self):
        self.assert_clean(
            "src/wavefunction/ok_mw_batched.h",
            "struct S {\n"
            "  void mw_evaluate_vgl(const Pos* r, int nw, Batch& out) {\n"
            "    backend_->evaluate_vgh_multi(fold_positions(r, nw), nw, res);\n"
            "    backend_->evaluate_v_multi(fold_positions(r, nw), nw, v, stride);\n"
            "    spos_->mw_evaluate_v(r, nw, v, stride);\n"
            "  }\n"
            "};\n")

    def test_scalar_call_outside_mw_method_is_fine(self):
        self.assert_clean(
            "src/wavefunction/ok_scalar_path.h",
            "struct S {\n"
            "  void ratio(P& p, int k) {\n"
            "    spos_->evaluate_v(p.active_pos(), psiv_.data());\n"
            "  }\n"
            "};\n")

    def test_mw_declaration_without_body_opens_no_scope(self):
        self.assert_clean(
            "src/wavefunction/ok_mw_decl.h",
            "struct S {\n"
            "  virtual void mw_evaluate_vgl(const Pos* r, int nw, Batch& out) = 0;\n"
            "  void helper() { evaluate_v(r, psi); }\n"
            "};\n")

    def test_other_directories_are_out_of_scope(self):
        self.assert_clean("src/drivers/ok_mw.h", self.BAD)

    def test_annotated_fallback_is_allowed(self):
        self.assert_clean(
            "src/wavefunction/ok_mw_fallback.h",
            "struct S {\n"
            "  void mw_evaluate_v(const Pos* r, int nr, TR* psi, std::size_t stride) {\n"
            "    // qmcxx-lint: allow(scalar-spo-in-crowd-path)\n"
            "    evaluate_v(r[0], psi);\n"
            "  }\n"
            "};\n")


class TestFloatAccumulatorInEstimator(LintFixtureCase):
    def test_fires_on_float_local(self):
        self.assert_fires(
            "float-accumulator-in-estimator", "src/estimators/bad_float.h",
            "template<typename TR>\n"
            "struct E {\n"
            "  void evaluate(const P<TR>& p, FullPrecReal* out) const {\n"
            "    float acc = 0;\n"
            "  }\n"
            "};\n")

    def test_fires_on_tr_accumulator(self):
        self.assert_fires(
            "float-accumulator-in-estimator", "src/estimators/bad_tr_acc.h",
            "template<typename TR>\n"
            "struct E {\n"
            "  void evaluate(const P<TR>& p, FullPrecReal* out) const {\n"
            "    TR acc = 0;\n"
            "  }\n"
            "};\n")

    def test_fires_on_tr_vector_bins(self):
        self.assert_fires(
            "float-accumulator-in-estimator", "src/estimators/bad_tr_bins.h",
            "template<typename TR>\n"
            "struct E {\n"
            "  std::vector<TR> norm_;\n"
            "};\n")

    def test_full_prec_bins_and_tr_row_views_are_clean(self):
        self.assert_clean(
            "src/estimators/ok_full_prec.h",
            "template<typename TR>\n"
            "struct E {\n"
            "  void evaluate(const P<TR>& p, FullPrecReal* out) const {\n"
            "    const TR* d = p.table(0).row_distances(p, 1);\n"
            "    FullPrecReal acc = 0;\n"
            "    acc += static_cast<FullPrecReal>(d[0]);\n"
            "  }\n"
            "  std::vector<FullPrecReal> norm_;\n"
            "};\n")

    def test_other_directories_are_out_of_scope(self):
        self.assert_clean("src/hamiltonian/ok_float.h",
                          "inline float downsample(double x) { float y = 0; return y; }\n")


class TestFullPrecDriftAccumulator(LintFixtureCase):
    def test_fires_on_tr_residual(self):
        self.assert_fires(
            "fullprec-drift-accumulator", "src/wavefunction/bad_tr_residual.h",
            "template<typename TR>\n"
            "struct D {\n"
            "  void monitor(const TR* pv) {\n"
            "    TR residual = 0;\n"
            "  }\n"
            "};\n")

    def test_fires_on_float_drift_scalar(self):
        self.assert_fires(
            "fullprec-drift-accumulator", "src/wavefunction/bad_float_drift.h",
            "struct D {\n"
            "  float max_drift_seen = 0;\n"
            "};\n")

    def test_full_prec_residual_and_tr_row_storage_are_clean(self):
        self.assert_clean(
            "src/wavefunction/ok_drift.h",
            "template<typename TR>\n"
            "struct D {\n"
            "  void monitor(const TR* pv) {\n"
            "    FullPrecReal residual = 0;\n"
            "  }\n"
            "  Matrix<TR> drift_scratch_;\n"
            "  int drift_rows_ = 0;\n"
            "};\n")

    def test_other_directories_are_out_of_scope(self):
        self.assert_clean("src/drivers/ok_drift_elsewhere.h",
                          "inline void f() { float drift = 0; (void)drift; }\n")


class TestSuppression(LintFixtureCase):
    def test_allow_on_same_line(self):
        self.assert_clean(
            "src/drivers/ok_inline.cpp",
            "int f() { return rand(); } // qmcxx-lint: allow(rng-outside-core)\n")

    def test_allow_on_line_above(self):
        self.assert_clean(
            "src/drivers/ok_above.cpp",
            "// qmcxx-lint: allow(rng-outside-core)\n"
            "int f() { return rand(); }\n")

    def test_allow_file(self):
        self.assert_clean(
            "src/drivers/ok_file.cpp",
            "// qmcxx-lint: allow-file(rng-outside-core)\n"
            "int f() { return rand(); }\n"
            "int g() { return rand(); }\n")

    def test_allow_for_other_rule_does_not_suppress(self):
        self.assert_fires(
            "rng-outside-core", "src/drivers/bad_wrong_allow.cpp",
            "// qmcxx-lint: allow(cout-in-src)\n"
            "int f() { return rand(); }\n")

    def test_allow_does_not_cover_two_lines_below(self):
        self.assert_fires(
            "rng-outside-core", "src/drivers/bad_far_allow.cpp",
            "// qmcxx-lint: allow(rng-outside-core)\n"
            "int unrelated;\n"
            "int f() { return rand(); }\n")


class TestCommentAndStringImmunity(LintFixtureCase):
    def test_comments_and_strings_do_not_fire(self):
        self.assert_clean(
            "src/drivers/ok_comment.cpp",
            "// std::cout << rand() << std::mt19937\n"
            "/* std::chrono::steady_clock */\n"
            'const char* s = "std::cout rand()";\n')


class TestCliContract(LintFixtureCase):
    def test_missing_path_is_usage_error(self):
        self.write("src/empty.cpp", "int x;\n")
        code, _ = self.run_lint("no/such/dir")
        # collect_files exits(2) on bad paths
        self.assertEqual(code, 2)

    def run_lint(self, *paths):
        out = io.StringIO()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lint.main(list(paths))
        except SystemExit as e:
            code = e.code
        return code, out.getvalue()

    def test_list_rules_names_every_rule(self):
        code, out = self.run_lint("--list-rules")
        self.assertEqual(code, 0)
        for rule in ("rng-outside-core", "aos-in-hot-path", "chrono-outside-instrument",
                     "cout-in-src", "io-outside-snapshot", "double-in-tr-template",
                     "scalar-spo-in-crowd-path", "float-accumulator-in-estimator",
                     "fullprec-drift-accumulator"):
            self.assertIn(rule, out)


class TestRealTreeIsClean(unittest.TestCase):
    def test_repo_passes_its_own_linter(self):
        lint = load_linter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lint.main(["src", "bench", "tests", "examples"])
        self.assertEqual(code, 0, f"repo tree has lint findings:\n{out.getvalue()}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
