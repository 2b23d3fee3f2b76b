"""Number-theoretic primitives underpinning the batch-GCD computation.

This package is self-contained (pure Python ``int`` arithmetic) and provides
everything the higher layers need:

- :mod:`repro.numt.sieve` — small-prime sieves used by prime generation and
  by the OpenSSL prime fingerprint (Section 3.3.4 of the paper).
- :mod:`repro.numt.primality` — primality testing, exact below ~3.3e24
  (Baillie–PSW below 2**64, proven Miller–Rabin witnesses above), and
  next-prime search.
- :mod:`repro.numt.trees` — product trees and remainder trees, the building
  blocks of Bernstein's batch-GCD algorithm (Section 3.2).
- :mod:`repro.numt.smooth` — trial factoring, used to recognise bit-error
  artifacts whose spurious gcd divisors are products of many small primes
  (Section 3.3.5).
- :mod:`repro.numt.incremental` — the appendable product tree and its
  persistent on-disk store: complete-block appends (amortised O(1)
  products), one durable commit per batch, and membership checks
  against the whole corpus (the serving-path engine's substrate).

With one deliberate exception, everything operates on plain ``int``
values, has no I/O and records no telemetry of its own — callers that
need per-phase timings wrap these primitives in spans (see how
:mod:`repro.core.clustered` brackets
:func:`product_tree` / :func:`remainder_tree` with
``batch_gcd.task.*`` spans).  The exception is
:class:`~repro.numt.incremental.ProductTreeStore`, which is a durable
store by design: it persists its one append-only log and records
``batch_gcd.incremental.*`` spans (its pure in-memory half,
:class:`~repro.numt.incremental.IncrementalProductTree`, keeps the
package rule).  The tree functions are the hot path of the
whole system: at the paper's scale the root product alone is ~2.6 GB of
integer, which is exactly why the clustered engine splits it k ways.

Performance note: complexities are quasilinear for the trees
(``M(n) log n`` with ``M`` the multiplication cost), ``O(log³ n)`` per
Miller–Rabin witness or strong Lucas test, and linear in the table size
for the sieves; there is no global state, so every function here is safe
to call from process pool workers.
"""

from repro.numt.backend import (
    BigIntBackend,
    available_backends,
    resolve_backend,
)
from repro.numt.incremental import (
    IncrementalProductTree,
    PartnerHit,
    ProbeOutcome,
    ProductTreeStore,
    StoreCorruptError,
)
from repro.numt.primality import is_probable_prime, next_prime
from repro.numt.sieve import first_n_primes, primes_below
from repro.numt.smooth import trial_factor
from repro.numt.trees import (
    barrett_reduce,
    gcd_descent_hits,
    newton_reciprocal,
    prepare_reciprocals,
    product_tree,
    remainder_tree,
    remainder_tree_prepared,
    remainder_tree_squared,
    tree_product,
)

__all__ = [
    "BigIntBackend",
    "IncrementalProductTree",
    "PartnerHit",
    "ProbeOutcome",
    "ProductTreeStore",
    "StoreCorruptError",
    "available_backends",
    "barrett_reduce",
    "first_n_primes",
    "gcd_descent_hits",
    "is_probable_prime",
    "newton_reciprocal",
    "next_prime",
    "prepare_reciprocals",
    "primes_below",
    "product_tree",
    "remainder_tree",
    "remainder_tree_prepared",
    "remainder_tree_squared",
    "resolve_backend",
    "tree_product",
    "trial_factor",
]
