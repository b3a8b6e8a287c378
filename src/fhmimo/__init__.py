"""Frequency-hopping MIMO dual-function radar-communications simulator."""

__version__ = "0.1.0"
