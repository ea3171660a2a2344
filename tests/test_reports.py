"""Golden report bytes: full ``check-morphism`` and ``laws`` reports, pinned.

Every check name and witness format of the two commands appears below, in
passing and failing runs.  The specs and maps use polynomial expressions
only, so the bytes depend on IEEE arithmetic and not on the platform's libm.
"""

import pytest

from dynsys import cli

SPECS = {
    "time.txt": "kind: continuous\ndimension: 1\nfield: 1\nbasepoint: 0\n",
    "double.txt": "kind: continuous\ndimension: 1\nfield: 2\n",
    "quad.txt": "kind: continuous\ndimension: 1\nfield: x1^2\nbasepoint: 1\n",
    "osc.txt": "kind: continuous\ndimension: 2\nfield: x2\nfield: -x1\nbasepoint: 1 0\n",
    "germed.txt": ("kind: germed\ndimension: 1\ndomain: -inf inf\npuncture: 0\n"
                   "field: 1\nbasepoint: 1\n"),
    "base.txt": "kind: continuous\ndimension: 1\nfield: x1\nsection-base: x1 + 1\n",
    "funnel.txt": "kind: discrete\nelements: a b\nmap: a -> b\nmap: b -> b\nbasepoint: a\n",
    "mod3.txt": ("kind: discrete\nelements: p q r\nmap: p -> q\nmap: q -> r\nmap: r -> p\n"
                 "basepoint: p\n"),
    "broken.txt": ("kind: discrete\nelements: a b\nmap: a -> b\nmap: b -> b\n"
                   "section: a -> b a\nsection: b -> b b\n"),
    "translate.txt": "kind: map\ncomponent: x1 + 3\n",
    "ident.txt": "kind: map\ncomponent: x1\n",
    "mod3id.txt": "kind: map\nentry: p -> p\nentry: q -> q\nentry: r -> r\n",
    "funnelmod3.txt": "kind: map\nentry: a -> p\nentry: b -> q\n",
}

# (id, argv, exit code, the whole report)
CASES = [
    ('laws-mod3', ['laws', 'mod3.txt'], 0,
     'tool: dynsys 0.1.0\n'
     'command: laws mod3.txt\n'
     'config: atol=1e-12 horizon=6 period=- rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'check: name=initiality[p] verdict=pass residual=0.0 samples=2187 witness=- note=-\n'
     'note: fixed-points: (none)\n'
     'result: pass\n'),
    ('laws-broken-section', ['laws', 'broken.txt'], 3,
     'tool: dynsys 0.1.0\n'
     'command: laws broken.txt\n'
     'config: atol=1e-12 horizon=6 period=- rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=fail residual=1.0 samples=2 witness="section moves \'a\' to footing \'b\'" note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=2 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=2 witness=- note=-\n'
     'check: name=initiality[a] verdict=pass residual=0.0 samples=128 witness=- note=-\n'
     'check: name=initiality[b] verdict=pass residual=0.0 samples=128 witness=- note=-\n'
     'note: fixed-points: b\n'
     'result: fail\n'),
    ('laws-oscillator-period', ['laws', 'osc.txt', '--period', '6.283185307179586'], 0,
     'tool: dynsys 0.1.0\n'
     'command: laws osc.txt\n'
     'config: atol=1e-12 horizon=6 period=6.283185307179586 rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=equilibrium-morphisms verdict=pass residual=0.0 samples=1 witness=- note=-\n'
     'check: name=solution-morphism verdict=pass residual=4.10333683790734e-14 samples=494 witness=- note=-\n'
     'check: name=periodic-orbit verdict=pass residual=4.720329753052611e-10 samples=1 witness=- note=-\n'
     'note: equilibria: 1 found\n'
     'result: pass\n'),
    ('laws-oscillator-wrong-period', ['laws', 'osc.txt', '--period', '3'], 3,
     'tool: dynsys 0.1.0\n'
     'command: laws osc.txt\n'
     'config: atol=1e-12 horizon=6 period=3.0 rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=equilibrium-morphisms verdict=pass residual=0.0 samples=1 witness=- note=-\n'
     'check: name=solution-morphism verdict=pass residual=4.10333683790734e-14 samples=494 witness=- note=-\n'
     'check: name=periodic-orbit verdict=fail residual=1.9949899731594418 samples=1 witness="endpoint (-0.9899924965369095, -0.14112000826781745)" note=-\n'
     'note: equilibria: 1 found\n'
     'result: fail\n'),
    ('laws-quad', ['laws', 'quad.txt'], 0,
     'tool: dynsys 0.1.0\n'
     'command: laws quad.txt\n'
     'config: atol=1e-12 horizon=6 period=- rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=equilibrium-morphisms verdict=pass residual=0.0 samples=1 witness=- note=-\n'
     'check: name=solution-morphism verdict=pass residual=0.2505210664257902 samples=489 witness=- note=-\n'
     'note: equilibria: 1 found\n'
     'result: pass\n'),
    ('laws-quad-period-blows-up', ['laws', 'quad.txt', '--period', '2'], 3,
     'tool: dynsys 0.1.0\n'
     'command: laws quad.txt\n'
     'config: atol=1e-12 horizon=6 period=2.0 rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=equilibrium-morphisms verdict=pass residual=0.0 samples=1 witness=- note=-\n'
     'check: name=solution-morphism verdict=pass residual=0.2505210664257902 samples=489 witness=- note=-\n'
     'check: name=periodic-orbit verdict=fail residual=1.0 samples=0 witness="trajectory ended at t=1 (blow-up) before T=2.0" note=-\n'
     'note: equilibria: 1 found\n'
     'result: fail\n'),
    ('laws-germed', ['laws', 'germed.txt'], 0,
     'tool: dynsys 0.1.0\n'
     'command: laws germed.txt\n'
     'config: atol=1e-12 horizon=6 period=- rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=solution-morphism verdict=pass residual=2.7755575615628914e-14 samples=495 witness=- note=-\n'
     'note: equilibria: 0 found\n'
     'result: pass\n'),
    ('laws-moved-footing', ['laws', 'base.txt'], 3,
     'tool: dynsys 0.1.0\n'
     'command: laws base.txt\n'
     'config: atol=1e-12 horizon=6 period=- rtol=1e-09 tol=1e-08\n'
     'check: name=section-law verdict=fail residual=1.0 samples=25 witness="footing moved by 1 at (0.0,)" note=-\n'
     'check: name=identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=equilibrium-morphisms verdict=pass residual=0.0 samples=1 witness=- note=-\n'
     'note: equilibria: 1 found\n'
     'note: solution-morphism skipped: no basepoint in the spec\n'
     'result: fail\n'),
    ('laws-two-specs', ['laws', 'mod3.txt', 'osc.txt'], 0,
     'tool: dynsys 0.1.0\n'
     'command: laws mod3.txt osc.txt\n'
     'config: atol=1e-12 horizon=6 period=- rtol=1e-09 tol=1e-08\n'
     'check: name=mod3.txt:section-law verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'check: name=mod3.txt:identity-morphism verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'check: name=mod3.txt:compose-associativity verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'check: name=mod3.txt:initiality[p] verdict=pass residual=0.0 samples=2187 witness=- note=-\n'
     'check: name=osc.txt:section-law verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=osc.txt:identity-morphism verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=osc.txt:compose-associativity verdict=pass residual=0.0 samples=25 witness=- note=-\n'
     'check: name=osc.txt:equilibrium-morphisms verdict=pass residual=0.0 samples=1 witness=- note=-\n'
     'check: name=osc.txt:solution-morphism verdict=pass residual=4.10333683790734e-14 samples=494 witness=- note=-\n'
     'note: mod3.txt:fixed-points: (none)\n'
     'note: osc.txt:equilibria: 1 found\n'
     'result: pass\n'),
    ('check-translation-preserves', ['check-morphism', 'time.txt', 'time.txt', 'translate.txt', '--preserve-solutions', '0', '1'], 0,
     'tool: dynsys 0.1.0\n'
     'command: check-morphism time.txt time.txt translate.txt\n'
     'config: atol=1e-12 preserve_tol=1e-05 rtol=1e-09 tol=1e-08\n'
     'check: name=f-relatedness verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=solution-preservation verdict=pass residual=8.881784197001252e-16 samples=201 witness=- note=-\n'
     'result: pass\n'),
    ('check-identity-into-double-fails', ['check-morphism', 'time.txt', 'double.txt', 'ident.txt', '--preserve-solutions', '0', '1'], 3,
     'tool: dynsys 0.1.0\n'
     'command: check-morphism time.txt double.txt ident.txt\n'
     'config: atol=1e-12 preserve_tol=1e-05 rtol=1e-09 tol=1e-08\n'
     'check: name=f-relatedness verdict=fail residual=1.0 samples=200 witness="worst defect 1 at x=(0.0,)" note=-\n'
     'check: name=solution-preservation verdict=fail residual=1.0000000000000004 samples=201 witness="max deviation 1 at t=1.0" note=-\n'
     'result: fail\n'),
    ('check-blow-up-compared-early', ['check-morphism', 'quad.txt', 'quad.txt', 'ident.txt', '--preserve-solutions', '1', '2'], 0,
     'tool: dynsys 0.1.0\n'
     'command: check-morphism quad.txt quad.txt ident.txt\n'
     'config: atol=1e-12 preserve_tol=1e-05 rtol=1e-09 tol=1e-08\n'
     'check: name=f-relatedness verdict=pass residual=0.0 samples=200 witness=- note=-\n'
     'check: name=solution-preservation verdict=pass residual=0.0 samples=201 witness=- note="compared on [0, 0.99999999009595442] (early termination)"\n'
     'result: pass\n'),
    ('check-discrete-identity', ['check-morphism', 'mod3.txt', 'mod3.txt', 'mod3id.txt'], 0,
     'tool: dynsys 0.1.0\n'
     'command: check-morphism mod3.txt mod3.txt mod3id.txt\n'
     'config: atol=1e-12 preserve_tol=1e-05 rtol=1e-09 tol=1e-08\n'
     'check: name=dt-morphism verdict=pass residual=0.0 samples=3 witness=- note=-\n'
     'result: pass\n'),
    ('check-discrete-fails', ['check-morphism', 'funnel.txt', 'mod3.txt', 'funnelmod3.txt'], 3,
     'tool: dynsys 0.1.0\n'
     'command: check-morphism funnel.txt mod3.txt funnelmod3.txt\n'
     'config: atol=1e-12 preserve_tol=1e-05 rtol=1e-09 tol=1e-08\n'
     'check: name=dt-morphism verdict=fail residual=1.0 samples=2 witness="at \'b\': Y(alpha(\'b\'))=\'r\' but alpha(X(\'b\'))=\'q\'" note=-\n'
     'result: fail\n'),
]


@pytest.mark.parametrize("argv, code, report", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_bytes(tmp_path, monkeypatch, capsys, argv, code, report):
    for name, text in SPECS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out == report
