"""Slanted true-time-delay beams for mmWave OFDMA arrays under mobility."""

__version__ = "0.1.0"
