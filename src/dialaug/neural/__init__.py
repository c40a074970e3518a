"""From-scratch neural kernel: autodiff, vocabulary, the four-decoder network,
training loop and checkpointing."""

from .vocab import Vocab, CopyExtension, PAD, UNK, BOS, EOS, SEP, PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP_ID
from .model import (
    ModelConfig,
    ModelParams,
    TrainingError,
    Encoding,
    Decoder,
    AttentionSite,
    ForwardResult,
    TurnOutput,
    encode,
    forward_batch,
    forward_instance,
    sequence_nll,
    generate_turn,
    generate_paraphrases,
)
from .training import Adam, PlateauSchedule, ScheduleEvent, TrainResult, train, mean_loss
from .checkpoint import Checkpoint, CheckpointError, save_checkpoint, load_checkpoint, from_result

__all__ = [
    "Vocab", "CopyExtension", "PAD", "UNK", "BOS", "EOS", "SEP",
    "PAD_ID", "UNK_ID", "BOS_ID", "EOS_ID", "SEP_ID",
    "ModelConfig", "ModelParams", "TrainingError", "Encoding", "Decoder", "AttentionSite",
    "ForwardResult", "TurnOutput", "encode", "forward_batch", "forward_instance", "sequence_nll",
    "generate_turn", "generate_paraphrases",
    "Adam", "PlateauSchedule", "ScheduleEvent", "TrainResult", "train", "mean_loss",
    "Checkpoint", "CheckpointError", "save_checkpoint", "load_checkpoint", "from_result",
]
