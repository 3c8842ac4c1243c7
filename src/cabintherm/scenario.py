"""Scenario datasets: CSV ingestion, solar altitude, synthetic generation.

A scenario is one hour of operation.  Real datasets arrive as CSV files with
one row per hour; for desk-scale studies :func:`synthesize_dataset` produces
a seeded synthetic year with a configurable temperate climate profile whose
marginal distributions are qualitative stand-ins for measured data.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
import zlib
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DataError
from .model_core import KELVIN, Scenario, c_to_k

CSV_COLUMNS = ["id", "month", "T_inf_C", "I_dni", "I_dhi", "beta_deg",
               "N_pass", "zeta_door", "zeta_sh"]
# beta may alternatively be supplied as a UTC timestamp plus coordinates
CSV_SOLAR_ALT_COLUMNS = ["timestamp", "latitude_deg", "longitude_deg"]

SOLAR_CONSTANT = 1361.0  # W/m^2, DNI can never exceed this

SEASON_OF_MONTH = {12: "winter", 1: "winter", 2: "winter",
                   3: "spring", 4: "spring", 5: "spring",
                   6: "summer", 7: "summer", 8: "summer",
                   9: "autumn", 10: "autumn", 11: "autumn"}

DEFAULT_ZETA_SH = {"winter": 0.45, "spring": 0.35, "summer": 0.25, "autumn": 0.35}


@dataclass(frozen=True)
class ScenarioSet:
    """Immutable list of scenarios plus where they came from."""

    scenarios: tuple[Scenario, ...]
    provenance: str = ""

    def __post_init__(self):
        if not self.scenarios:
            raise DataError("scenario set must not be empty")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def month_histogram(self) -> dict[int, int]:
        hist = {m: 0 for m in range(1, 13)}
        for s in self.scenarios:
            hist[s.month] += 1
        return hist

    def subset(self, n: int, seed: int = 0) -> "ScenarioSet":
        """Deterministic random subset of ``n`` scenarios (all of them when
        ``n`` is at least their number)."""
        if n < 0:
            raise DataError(f"subset size must be non-negative, got {n}")
        if n >= len(self.scenarios):
            return self
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.permutation(len(self.scenarios))[:n])
        return ScenarioSet(tuple(self.scenarios[i] for i in idx),
                           provenance=f"{self.provenance} (subset {n}, seed {seed})")


def placement_seed(scenario_id: str, base_seed: int = 0) -> int:
    """Deterministic per-scenario seed for passenger placement."""
    return (zlib.crc32(scenario_id.encode("utf-8")) ^ (base_seed & 0xFFFFFFFF)) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# solar position
# ---------------------------------------------------------------------------

def solar_altitude(timestamp: float, latitude: float, longitude: float) -> float:
    """Solar altitude angle (rad) at a UTC unix timestamp and location.

    Low-precision ephemeris (Fourier-series declination and equation of
    time), good to roughly 0.2 degrees between 1950 and 2100 -- plenty for
    hourly irradiance work.  ``latitude``/``longitude`` in radians, east
    positive.
    """
    if not all(map(math.isfinite, (timestamp, latitude, longitude))):
        raise DataError(f"solar position inputs must be finite, got timestamp {timestamp}, "
                        f"latitude {latitude}, longitude {longitude}")
    try:
        dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        dt = None
    if dt is None or not 1950 <= dt.year <= 2100:
        raise DataError(f"timestamp {timestamp} outside the supported years 1950-2100")
    doy = dt.timetuple().tm_yday
    hours = dt.hour + dt.minute / 60.0 + dt.second / 3600.0
    days_in_year = 366 if dt.year % 4 == 0 and (dt.year % 100 != 0 or dt.year % 400 == 0) else 365

    # fractional year (rad)
    g = 2.0 * math.pi / days_in_year * (doy - 1 + (hours - 12.0) / 24.0)

    eqtime = 229.18 * (0.000075 + 0.001868 * math.cos(g) - 0.032077 * math.sin(g)
                       - 0.014615 * math.cos(2 * g) - 0.040849 * math.sin(2 * g))
    decl = (0.006918 - 0.399912 * math.cos(g) + 0.070257 * math.sin(g)
            - 0.006758 * math.cos(2 * g) + 0.000907 * math.sin(2 * g)
            - 0.002697 * math.cos(3 * g) + 0.00148 * math.sin(3 * g))

    time_offset = eqtime + 4.0 * math.degrees(longitude)  # minutes
    tst = hours * 60.0 + time_offset                      # true solar time, minutes
    ha = math.radians(tst / 4.0 - 180.0)                  # hour angle

    sin_alt = (math.sin(latitude) * math.sin(decl)
               + math.cos(latitude) * math.cos(decl) * math.cos(ha))
    return math.asin(min(1.0, max(-1.0, sin_alt)))


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

def _parse_row(row: dict[str, str], lineno: int, has_beta: bool) -> Scenario:
    def num(col):
        try:
            return float(row[col])
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric value {row[col]!r} in column {col!r}")

    def whole(col):
        value = num(col)
        if not value.is_integer():      # NaN and inf included
            raise DataError(f"line {lineno}: non-integer value {row[col]!r} in column {col!r}")
        return int(value)

    if has_beta:
        beta = math.radians(num("beta_deg"))
    else:
        beta = solar_altitude(num("timestamp"),
                              math.radians(num("latitude_deg")),
                              math.radians(num("longitude_deg")))
    i_dni = num("I_dni")
    i_dhi = num("I_dhi")
    if beta <= 0.0 and (i_dni > 0.0 or i_dhi > 0.0):
        warnings.warn(f"line {lineno}: sun below horizon, zeroing nonzero irradiance")
        i_dni = i_dhi = 0.0
    try:
        return Scenario(
            T_inf=c_to_k(num("T_inf_C")),
            I_dni=i_dni,
            I_dhi=i_dhi,
            beta=beta,
            N_pass=whole("N_pass"),
            zeta_door=num("zeta_door"),
            zeta_sh=num("zeta_sh"),
            month=whole("month"),
            id=row["id"],
        )
    except ConfigError as exc:
        raise DataError(f"line {lineno}: {exc}")


def load_scenarios_csv(path: str) -> ScenarioSet:
    """Load and validate a scenario CSV file.

    The header must carry either a ``beta_deg`` column or the
    timestamp/latitude/longitude triple.  Rows violating the scenario
    invariants, rows whose field count is not the header's, and rows
    repeating an earlier row's id, abort the load with the first physical
    line of each (a quoted field may span lines);
    the one tolerated inconsistency is nonzero irradiance with the sun
    below the horizon, which is zeroed with a warning.  A file that cannot
    be read is a :class:`DataError` too.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read scenario file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DataError(f"cannot read scenario file {path}: not UTF-8 text") from None
    with io.StringIO(text) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        fields = set(header)
        base = set(CSV_COLUMNS) - {"beta_deg"}
        if "beta_deg" in fields:
            missing = (base | {"beta_deg"}) - fields
        elif set(CSV_SOLAR_ALT_COLUMNS) <= fields:
            missing = base - fields
        else:
            missing = (base | {"beta_deg"}) - fields
        if missing:
            raise DataError(f"{path}: missing columns {sorted(missing)}")

        scenarios = []
        errors = []
        line_of_id: dict[str, int] = {}
        # a record starts on the line after the last one of the record
        # before it: a quoted field may hold a newline
        first = reader.line_num + 1
        for values in reader:
            lineno, first = first, reader.line_num + 1
            if not values:
                continue        # a blank line
            if len(values) != len(header):
                errors.append(f"line {lineno}: "
                              f"{'more' if len(values) > len(header) else 'fewer'} fields "
                              f"than the {len(header)} of the header")
                continue
            row = dict(zip(header, values))
            first_of_id = line_of_id.setdefault(row["id"], lineno)
            if first_of_id != lineno:
                errors.append(f"line {lineno}: duplicate scenario id {row['id']!r} "
                              f"(first on line {first_of_id})")
                continue
            try:
                scenarios.append(_parse_row(row, lineno, "beta_deg" in fields))
            except DataError as exc:
                errors.append(str(exc))
        if errors:
            raise DataError(f"{path}: {len(errors)} invalid rows rejected: "
                            + "; ".join(errors[:20]))
        if not scenarios:
            raise DataError(f"{path}: no data rows")
    return ScenarioSet(tuple(scenarios), provenance=path)


def scenarios_to_csv(sset: ScenarioSet) -> str:
    """Render a scenario set as CSV text.

    The kelvin-to-Celsius and radian-to-degree conversions are snapped to
    fine decimal grids (1e-9 C, 1e-10 deg) so that writing and re-loading a
    generated set reproduces every field bit-for-bit; all other columns are
    emitted with exact ``repr`` round-trip.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in sset:
        writer.writerow([s.id, s.month, repr(round(s.T_inf - KELVIN, 9)),
                         repr(s.I_dni), repr(s.I_dhi),
                         repr(round(math.degrees(s.beta), 10)), s.N_pass,
                         repr(s.zeta_door), repr(s.zeta_sh)])
    return buf.getvalue()


def save_scenarios_csv(sset: ScenarioSet, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(scenarios_to_csv(sset))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClimateProfile:
    """Qualitative temperate climate and ridership profile.

    Monthly statistics are engineering placeholders shaped after a central
    European city; all values are configurable.  Passenger demand varies by
    hour of day; buses run between ``service_hours``.
    """

    monthly_mean_C: tuple[float, ...] = (-1.0, 0.5, 4.5, 8.5, 13.0, 16.5,
                                         18.5, 18.0, 14.0, 9.5, 4.0, 0.5)
    monthly_std_C: tuple[float, ...] = (4.5, 4.5, 4.5, 4.5, 4.5, 4.5,
                                        4.5, 4.5, 4.5, 4.5, 4.5, 4.5)
    dni_clear_max: tuple[float, ...] = (500.0, 600.0, 700.0, 800.0, 850.0, 900.0,
                                        900.0, 850.0, 750.0, 650.0, 500.0, 450.0)
    dhi_clear_max: tuple[float, ...] = (60.0, 70.0, 90.0, 110.0, 130.0, 140.0,
                                        140.0, 130.0, 110.0, 90.0, 70.0, 60.0)
    p_clear: tuple[float, ...] = (0.30, 0.32, 0.38, 0.42, 0.45, 0.48,
                                  0.50, 0.48, 0.44, 0.36, 0.28, 0.26)
    zeta_sh_by_month: tuple[float, ...] = tuple(
        DEFAULT_ZETA_SH[SEASON_OF_MONTH[m]] for m in range(1, 13))
    passenger_lambda_by_hour: tuple[float, ...] = (
        2, 2, 2, 2, 3, 8, 18, 30, 26, 16, 14, 14,
        16, 14, 14, 16, 24, 30, 24, 14, 10, 8, 5, 3)
    passenger_max: int = 60
    door_beta_a: float = 2.5
    door_beta_b: float = 7.5
    door_max_fraction: float = 0.3
    latitude_deg: float = 47.38
    longitude_deg: float = 8.54
    year: int = 2022
    service_hour_start: int = 5
    service_hour_end: int = 24

    def __post_init__(self):
        for name in ("monthly_mean_C", "monthly_std_C", "dni_clear_max",
                     "dhi_clear_max", "p_clear", "zeta_sh_by_month"):
            if len(getattr(self, name)) != 12:
                raise ConfigError(f"{name} must have 12 monthly entries")
        if any(s < 0 for s in self.monthly_std_C):
            raise ConfigError("monthly stds must be non-negative")
        if len(self.passenger_lambda_by_hour) != 24:
            raise ConfigError("passenger_lambda_by_hour must have 24 entries")
        if not all(0.0 <= lam < math.inf for lam in self.passenger_lambda_by_hour):
            raise ConfigError("passenger_lambda_by_hour entries must be finite and "
                              "non-negative")
        if any(d > SOLAR_CONSTANT for d in self.dni_clear_max):
            raise ConfigError("clear-sky DNI cannot exceed the solar constant")
        if any(not 0.0 <= p <= 1.0 for p in self.p_clear):
            raise ConfigError(f"p_clear entries must be in [0, 1], got {self.p_clear}")
        for name in ("door_beta_a", "door_beta_b"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.door_max_fraction <= 1.0:
            raise ConfigError(f"door_max_fraction must be in [0, 1], "
                              f"got {self.door_max_fraction}")
        # a fraction would silently cap every scenario at its whole part
        if not (isinstance(self.passenger_max, int) and not isinstance(self.passenger_max, bool)
                and self.passenger_max >= 0):
            raise ConfigError(f"passenger_max must be a whole non-negative number, "
                              f"got {self.passenger_max!r}")
        # the ephemeris of solar_altitude covers 1950-2100
        if not (isinstance(self.year, int) and 1950 <= self.year <= 2100):
            raise ConfigError(f"year must be a whole year in 1950-2100, got {self.year!r}")
        hours = (self.service_hour_start, self.service_hour_end)
        if not (all(isinstance(h, int) for h in hours) and hours[0] < hours[1]):
            raise ConfigError(f"service_hour_start and service_hour_end must be whole hours, "
                              f"start before end, got {hours[0]!r} and {hours[1]!r}")


_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def synthesize_dataset(n: int, seed: int, profile: ClimateProfile | None = None) -> ScenarioSet:
    """Generate ``n`` synthetic hourly scenarios, deterministic per seed.

    Months are sampled uniformly; the ambient temperature follows the
    monthly profile, irradiance is a clear-sky envelope scaled by a sampled
    cloudiness state and zeroed below the horizon, and ridership and door
    openings follow the profile distributions.
    """
    if n < 1:
        raise DataError("need at least one scenario")
    profile = profile or ClimateProfile()
    rng = np.random.default_rng(seed)
    lat = math.radians(profile.latitude_deg)
    lon = math.radians(profile.longitude_deg)

    scenarios = []
    for i in range(n):
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, _DAYS_IN_MONTH[month - 1] + 1))
        hour = int(rng.integers(profile.service_hour_start, profile.service_hour_end))
        ts = datetime(profile.year, month, day, hour % 24, 30,
                      tzinfo=timezone.utc).timestamp()
        beta = solar_altitude(ts, lat, lon)

        t_inf_c = rng.normal(profile.monthly_mean_C[month - 1],
                             profile.monthly_std_C[month - 1])
        t_inf_c = float(np.clip(t_inf_c, -25.0, 42.0))

        if beta > 0.0:
            clear = rng.random() < profile.p_clear[month - 1]
            k = rng.uniform(0.65, 1.0) if clear else rng.uniform(0.0, 0.45)
            i_dni = profile.dni_clear_max[month - 1] * k * math.sin(beta) ** 0.3
            i_dhi = profile.dhi_clear_max[month - 1] * (0.35 + 0.65 * (1.0 - k)) \
                * min(1.0, 2.0 * math.sin(beta))
            i_dni = min(i_dni, SOLAR_CONSTANT)
        else:
            i_dni = i_dhi = 0.0

        lam = profile.passenger_lambda_by_hour[hour % 24]
        n_pass = int(min(rng.poisson(lam), profile.passenger_max))
        zeta_door = float(rng.beta(profile.door_beta_a, profile.door_beta_b)
                          * profile.door_max_fraction)

        scenarios.append(Scenario(
            T_inf=c_to_k(round(t_inf_c, 3)),
            I_dni=round(i_dni, 2),
            I_dhi=round(i_dhi, 2),
            beta=math.radians(round(math.degrees(beta), 4)),
            N_pass=n_pass,
            zeta_door=round(zeta_door, 4),
            zeta_sh=profile.zeta_sh_by_month[month - 1],
            month=month,
            id=f"syn-{seed}-{i:05d}",
        ))
    return ScenarioSet(tuple(scenarios), provenance=f"synthetic(n={n}, seed={seed})")
