"""Access to the bundled regression corpus."""

from __future__ import annotations

from importlib import resources

from .sysspec import SystemSpec


def load(name: str) -> SystemSpec:
    path = resources.files(__package__) / "corpus" / f"{name}.yaml"
    text = path.read_text(encoding="utf-8")
    return SystemSpec.from_text(text, source=f"corpus:{name}")
