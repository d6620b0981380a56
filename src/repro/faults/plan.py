"""Seeded, deterministic fault injection for the solver service.

A :class:`FaultPlan` describes *where* and *how often* the library
should fail on purpose: each registered fault **site** (a named hook
compiled into the solver service) carries a
:class:`SiteRule` — a per-roll probability, an exact trigger index, an
optional total-fire limit, and site-specific knobs like the stall
duration.  The plan is injected explicitly
(``JobManager(fault_plan=...)``,
``python -m repro serve --fault-plan FILE``); when absent every hook
is a single ``is None`` check, so production paths pay nothing.

Determinism contract
--------------------
A decision is a **pure function** of ``(plan seed, site, scope, k)``
where ``scope`` is the caller-supplied identity of the faulting
context (a job id) and ``k`` is how many times that
``(site, scope)`` pair has rolled before.  Thread/process scheduling
reorders *when* decisions happen, never *what* they are: as long as
each scope's rolls are sequential (true for a job driven by one worker
at a time), the set of injected faults for a given plan is identical
on every run — which is what lets the ``faults`` experiment commit a
byte-reproducible ``BENCH_faults.json``.

The recognised sites:

======================  ================================================
site                    effect when fired
======================  ================================================
``journal.write``       :class:`OSError` (``ENOSPC``) from
                        :meth:`repro.serve.journal.Journal.write`
``journal.tmp``         a stale ``*.json.tmp.<pid>`` file is left in
                        the state dir (a simulated crash mid-replace)
``worker.transient``    :class:`~repro.errors.TransientFault` at the
                        start of a job attempt (retryable)
``worker.stall``        the job runner blocks ``stall_s`` seconds at a
                        checkpoint boundary (watchdog fodder)
``stream.disconnect``   the HTTP layer drops a checkpoint stream
                        mid-flight
``dispatcher.death``    :class:`RuntimeError` inside the dispatcher
                        loop (the thread dies; health degrades)
======================  ================================================
"""

from __future__ import annotations

import errno
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import FaultPlanError, TransientFault
from ..utils import stable_rng

#: Self-describing marker of the ``--fault-plan`` file format.
FAULT_PLAN_FORMAT = "repro-fault-plan/1"

#: Every site a plan may target (unknown names are a
#: :class:`FaultPlanError` — a typo must not silently disarm a chaos
#: run).
SITES = (
    "journal.write",
    "journal.tmp",
    "worker.transient",
    "worker.stall",
    "stream.disconnect",
    "dispatcher.death",
)


@dataclass(frozen=True)
class SiteRule:
    """How one fault site misbehaves.

    ``rate`` is the per-roll probability; ``after`` instead fires
    exactly on the ``after``-th roll of each scope (1-based — use for
    "the dispatcher dies on its 3rd batch" scripts); ``limit`` caps
    total fires across all scopes; ``stall_s`` is the stall duration
    for ``worker.stall``.
    """

    rate: float = 0.0
    after: Optional[int] = None
    limit: Optional[int] = None
    stall_s: float = 0.05

    def validate(self, site: str) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"site {site!r}: rate {self.rate} outside [0, 1]")
        if self.after is not None and self.after < 1:
            raise FaultPlanError(
                f"site {site!r}: 'after' must be >= 1 (1-based roll)")
        if self.limit is not None and self.limit < 0:
            raise FaultPlanError(f"site {site!r}: negative limit")
        if self.stall_s < 0:
            raise FaultPlanError(f"site {site!r}: negative stall_s")


class FaultPlan:
    """A seeded set of :class:`SiteRule` entries plus fire accounting.

    Thread-safe: the service's worker threads share one plan.
    """

    def __init__(self, seed: int = 0,
                 sites: Optional[Dict[str, Any]] = None):
        self.seed = int(seed)
        self.sites: Dict[str, SiteRule] = {}
        for site, rule in (sites or {}).items():
            if site not in SITES:
                raise FaultPlanError(
                    f"unknown fault site {site!r} "
                    f"(expected one of {list(SITES)})")
            if isinstance(rule, dict):
                unknown = set(rule) - {"rate", "after", "limit",
                                       "stall_s"}
                if unknown:
                    raise FaultPlanError(
                        f"site {site!r}: unknown rule keys "
                        f"{sorted(unknown)}")
                rule = SiteRule(**rule)
            rule.validate(site)
            self.sites[site] = rule
        self._counters: Dict[Tuple[str, str], int] = {}
        self._checks: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- decisions -----------------------------------------------------
    def active(self, site: str) -> bool:
        """Whether a rule targets ``site`` (hooks guard on this)."""

        return site in self.sites

    def rule(self, site: str) -> Optional[SiteRule]:
        return self.sites.get(site)

    def roll(self, site: str, scope: str = "") -> bool:
        """One deterministic decision: does ``site`` fire for this
        roll of ``scope``?  (Counts the roll either way.)
        """

        rule = self.sites.get(site)
        if rule is None:
            return False
        with self._lock:
            k = self._counters.get((site, scope), 0)
            self._counters[(site, scope)] = k + 1
            self._checks[site] = self._checks.get(site, 0) + 1
            if rule.after is not None:
                fire = (k + 1 == rule.after)
            else:
                fire = stable_rng(self.seed, "fault", site, scope,
                                  k).random() < rule.rate
            if fire and rule.limit is not None \
                    and self._fires.get(site, 0) >= rule.limit:
                fire = False
            if fire:
                self._fires[site] = self._fires.get(site, 0) + 1
        return fire

    def maybe_raise(self, site: str, scope: str = "") -> None:
        """Roll ``site`` and raise its configured exception on fire."""

        if self.roll(site, scope):
            raise make_fault(site)

    def stats(self) -> Dict[str, Any]:
        """Roll/fire accounting (this process only)."""

        with self._lock:
            return {
                "seed": self.seed,
                "sites": sorted(self.sites),
                "checks": dict(sorted(self._checks.items())),
                "fires": dict(sorted(self._fires.items())),
            }

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        sites: Dict[str, Any] = {}
        for site, rule in sorted(self.sites.items()):
            entry: Dict[str, Any] = {"rate": rule.rate}
            if rule.after is not None:
                entry["after"] = rule.after
            if rule.limit is not None:
                entry["limit"] = rule.limit
            if site == "worker.stall":
                entry["stall_s"] = rule.stall_s
            sites[site] = entry
        return {"format": FAULT_PLAN_FORMAT, "seed": self.seed,
                "sites": sites}

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        if (not isinstance(data, dict)
                or data.get("format") != FAULT_PLAN_FORMAT
                or not isinstance(data.get("sites"), dict)):
            raise FaultPlanError(
                f"not a {FAULT_PLAN_FORMAT!r} fault plan")
        return cls(seed=data.get("seed", 0), sites=data["sites"])

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a ``--fault-plan FILE`` (JSON) into a plan."""

        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise FaultPlanError(
                f"cannot read fault plan {path!r}: {exc}") from exc
        return cls.from_dict(data)


def make_fault(site: str) -> Exception:
    """The exception one fired site injects (typed per site so the
    hardening under test sees exactly what production would)."""

    if site == "journal.write":
        return OSError(errno.ENOSPC,
                       f"injected fault: {site} (disk full)")
    if site == "worker.transient":
        return TransientFault(f"injected fault: {site}")
    return RuntimeError(f"injected fault: {site}")


__all__ = ["FAULT_PLAN_FORMAT", "SITES", "FaultPlan", "SiteRule",
           "make_fault"]
