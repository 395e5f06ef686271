"""Decentralized daisy-chain MMSE uplink equalization under colored noise."""
