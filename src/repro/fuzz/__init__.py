"""Differential testing: one fuzz driver, eight profiles.

:func:`repro.fuzz.driver.sweep` owns the only seed loop — seed range →
case → check → shrink → corpus → report — and a :class:`Profile` is a
``generate``/``check`` pair registered in :data:`PROFILES` by the module
that holds the pair:

* ``quick`` / ``full`` / ``engine`` (:mod:`repro.fuzz.runner`) — random
  schemas, data and dialect queries (:mod:`repro.fuzz.generator`) held to
  a SQLite mirror (:mod:`repro.fuzz.oracle`, also home of the row-iterator
  reference ``reference_rows``) and to every planner configuration of the
  profile (:mod:`repro.fuzz.planspace`);
* ``plancache`` (:mod:`repro.fuzz.plancache`) — the plan-cache contract
  as one model (``CacheModel``, ``step``), driven over the same cases by
  this sweep and by the tests' Hypothesis state machine;
* ``xmlpub`` (:mod:`repro.fuzz.xmlpub`) — streamed vs materialized XML;
* ``chaos`` (:mod:`repro.fuzz.chaos`) and ``durability``
  (:mod:`repro.fuzz.durability`) — fault plans, asserting correct rows
  or a typed error, and exact prefix recovery. The durability contract
  lives there as one model (``StoreModel``, ``step``,
  ``reopen_and_check``) that the ``durability`` sweep and the tests'
  Hypothesis state machine both drive;
* ``serve-stress`` (:mod:`repro.fuzz.service`) — the service contract as
  one model (``ServiceModel``, ``step``, ``reconcile``), driven by this
  sweep's concurrent clients and by the tests' Hypothesis state machine.
  It is imported when a sweep first runs it, so importing this package
  loads no service.

:mod:`repro.fuzz.shrink` minimizes failures and :mod:`repro.fuzz.corpus`
persists them as replayable JSON reproducers.
``python -m repro.fuzz --profile full --seed 0 --n 500`` drives all of it.
"""

from repro.fuzz import chaos, durability, plancache, runner, xmlpub
from repro.fuzz.driver import Failure, Profile, Report, sweep


def _serve_stress() -> Profile:
    """``serve-stress``, importing :mod:`repro.fuzz.service` on first use."""

    def profile() -> Profile:
        from repro.fuzz.service import serve_stress_profile

        return serve_stress_profile()

    return Profile("serve-stress", lambda seed: profile().generate(seed),
                   lambda case, tally: profile().check(case, tally))


#: Every profile ``python -m repro.fuzz --profile`` accepts, by name.
PROFILES: dict[str, Profile] = {
    profile.name: profile
    for profile in (
        *runner.PROFILES,
        plancache.PROFILE,
        xmlpub.PROFILE,
        chaos.PROFILE,
        durability.PROFILE,
        _serve_stress(),
    )
}

__all__ = ["Failure", "PROFILES", "Profile", "Report", "sweep"]
