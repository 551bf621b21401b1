"""Rule tests for R15 (kernel-equivalence): every vectorized kernel
registers its scalar reference and equivalence test."""

from __future__ import annotations


# ---------------------------------------------------------------------------
# R15: kernel-equivalence

def test_unregistered_kernel_name_fires(tree):
    tree.write("repro/phy/mod.py", """
        def batched_decode(xs):
            return xs
    """)
    assert tree.rule_findings("kernel-equivalence") == [
        "repro/phy/mod.py:2 kernel-equivalence"]


def test_kernel_suffix_marker_fires_too(tree):
    tree.write("repro/phy/mod.py", """
        def fold_kernel(xs):
            return xs
    """)
    assert tree.rule_findings("kernel-equivalence") == [
        "repro/phy/mod.py:2 kernel-equivalence"]


def test_registered_kernel_with_resolving_scalar_passes(tree):
    tree.write("repro/phy/mod.py", """
        def decode(x):
            return x

        # repro: kernel scalar=repro.phy.mod:decode test=tests/test_kernels.py
        def batched_decode(xs):
            return [decode(x) for x in xs]
    """)
    assert tree.rule_findings("kernel-equivalence") == []


def test_self_referencing_scalar_fires(tree):
    tree.write("repro/phy/mod.py", """
        # repro: kernel scalar=repro.phy.mod:batched_decode test=tests/t.py
        def batched_decode(xs):
            return xs
    """)
    findings = tree.lint("kernel-equivalence").findings
    assert len(findings) == 1
    assert "itself" in findings[0].message


def test_unresolvable_scalar_reference_fires(tree):
    tree.write("repro/phy/mod.py", """
        # repro: kernel scalar=repro.phy.mod:gone test=tests/t.py
        def batched_decode(xs):
            return xs
    """)
    findings = tree.lint("kernel-equivalence").findings
    assert len(findings) == 1
    assert "does not resolve" in findings[0].message


def test_malformed_kernel_registration_fires(tree):
    tree.write("repro/phy/mod.py", """
        # repro: kernel scalar-is=missing
        def batched_decode(xs):
            return xs
    """)
    findings = tree.lint("kernel-equivalence").findings
    assert any("malformed" in finding.message for finding in findings)


def test_non_kernel_functions_are_left_alone(tree):
    tree.write("repro/phy/mod.py", """
        def decode(x):
            return x

        def batch_size(xs):
            return len(xs)
    """)
    assert tree.rule_findings("kernel-equivalence") == []
